"""A differential oracle for the statement language.

Hypothesis draws random statements over bound names: expressions, ``=``,
``let`` and ``sym``, which may re-bind a name ``let`` bound.  Their trees
hold ``+``/``-`` chains, runs of unary minus, literal left factors (0,
negatives and fractions included, under minuses and groups), ``*``, nested
groups, ``raaa()`` leaves that take the session's seeds, and builtin calls:
the degree parts and their ``set_`` forms, ``extract`` and ``replace`` with
selectors, and ``raaa`` with a literal seed or none and its keyword
arguments (``alphabet``, ``n1``, ``n2``, ``n3``).  Each tree is rendered
with random ``\\s`` whitespace and redundant parentheses, and ``_Model``
works out what it must give straight from ``core`` (``add``, ``sub``,
``neg``, ``scalar_mul``, ``mul``), ``access`` and ``rng.raaa``, one
operator or call at a time, in the order the language runs and checks
operands.  Ill-typed trees are rendered too: a bare number in a chain, as a
statement, bound by ``let`` or as a builtin's element, a number as a right
factor, ``2*(3)``, an unbound name, a seed that is not an integer, a
replacement the library refuses, and a ``raaa`` keyword given twice or
given a value it refuses (``n1=3/2``, ``n2=100001``, ``alphabet=2``); their
error's class, message and column come from the tree.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    AaaElement,
    AlgebraError,
    Env,
    EvalError,
    ExprError,
    KeySelector,
    ScalarOperandError,
    UnboundVariableError,
    add,
    from_symbols,
    mul,
    neg,
    parse,
    raaa,
    scalar_mul,
    serialize,
    sub,
    zero,
)
from antiassoc import access
from antiassoc.core import as_coeff
from antiassoc.exprlang import MAX_RAAA_TERMS, run_program
from antiassoc.rng import SplitMix64
from test_laws import _assert_clean, mixed_elements

NOT_ELEMENT = "a bare number cannot be used as an element (the algebra has no unit)"
LEFT_FACTOR = "a number may only appear as the left factor of '*'"

# Whitespace before a token: none, or characters for which str.isspace() holds.
_SPACES = ("", "", "", " ", " ", "  ", "\t", "\n", "\u3000", "\x85", "\u2028")
# A literal: (text, value); "4/2" is the int 2.  Numerators and denominators
# share factors with each other and with the bindings' denominators, so scaled
# terms often come out integral or cancel.
_NUMBER = st.builds(
    lambda p, q: (f"{p}/{q}", as_coeff(Fraction(p, q))) if q else (str(p), p),
    st.sampled_from([0, 1, 2, 3, 4, 6, 12]),
    st.sampled_from([None, None, 1, 2, 3, 4]),
)


# ---------------------------------------------------------------------------
# Trees: ("num", text, value), ("name", name), ("raaa",), ("neg", count, atom),
# ("group", expr), ("prod", first, [factor, ...]), ("chain", first, [(op, term), ...]),
# ("call", name, [arg, ...], ((keyword, value), ...)), a keyword's value a tuple of
# symbols or a number's text.  ``ill`` lets a number or an unbound name stand where
# an element must, any number be a seed and any number or element be a replacement.
# Every draw is from a strategy built once: building strategies per node is slow.

_ATOMS = {
    (deep, ill): st.sampled_from(
        ["name"] * 4 + ["raaa"] + ["group", "call"] * deep + ["num", "unbound"] * ill
    )
    for deep in (False, True)
    for ill in (False, True)
}
_COUNT = {n: st.integers(0, n) for n in (1, 2, 3, 4, 5)}
_MINUSES = st.sampled_from([0, 0, 0, 1, 2, 3])
_NAME = st.sampled_from("abc")
_LET_NAME = st.sampled_from("abv")
_SYM_NAMES = st.lists(_LET_NAME, min_size=1, max_size=3)
_OP = st.sampled_from("+-")
_BUILTIN = st.sampled_from(["single", "double", "triple", "set_single", "set_double",
                            "set_triple", "extract", "replace", "raaa", "raaa"])
_SEED = st.integers(0, 2**64 - 1)
_ZERO = st.sampled_from([("0", 0), ("0/3", 0)])
# Selector columns: a few keys per degree, over the symbols the bindings use most.
_KEYS = {width: st.lists(st.tuples(*[st.sampled_from("abcd")] * width), max_size=3)
         for width in (1, 2, 3)}
# raaa's keywords: an alphabet, term counts (small, to keep elements small) and the
# values it refuses.
_RAAA_KEYWORD = st.sampled_from(["alphabet", "n1", "n2", "n3"])
_ALPHABET = st.lists(st.sampled_from("abxy"), min_size=1, max_size=3).map(tuple)
_TERM_COUNT = st.sampled_from(["0", "1", "2", "3", "4/2"])
_REFUSED = {"alphabet": st.just("2"), **dict.fromkeys(("n1", "n2", "n3"),
                                                    st.sampled_from(["3/2", "100001"]))}


class _Tree:
    def __init__(self, draw, ill: bool):
        self.draw, self.ill = draw, ill

    def atom(self, depth: int):
        kind = self.draw(_ATOMS[depth > 0, self.ill])
        if kind == "name":
            return ("name", self.draw(_NAME))
        if kind == "unbound":
            return ("name", "nope")
        if kind == "raaa":
            return ("raaa",)
        if kind == "num":
            return ("num", *self.draw(_NUMBER))
        if kind == "call":
            return self.call(depth - 1)
        return ("group", self.expr(depth - 1))

    def call(self, depth: int):
        """A builtin call whose arguments are expressions ``depth`` levels deep."""
        name = self.draw(_BUILTIN)
        if name == "raaa":
            if self.ill and self.draw(st.booleans()):
                seeds = [self.constant() if self.draw(st.booleans()) else self.expr(depth)]
            elif self.draw(_COUNT[3]) == 0:
                seeds = []  # the session's next seed
            else:
                seed = self.draw(_SEED)
                seeds = [("num", str(seed), seed)]
            return ("call", name, seeds, self.raaa_keywords())
        element = self.expr(depth)
        if name == "extract":
            return ("call", name, [element], self.selector())
        if name == "replace":
            value = self.expr(depth) if self.ill and self.draw(st.booleans()) else self.constant()
            return ("call", name, [element, value], self.selector())
        if name.startswith("set_"):
            kind = self.draw(_COUNT[2])
            if kind == 0:
                value = ("num", *self.draw(_ZERO))
            elif kind == 1 or not self.ill:  # the part of the degree that is replaced
                value = ("call", name[4:], [self.expr(depth)], ())
            else:
                value = self.constant() if self.draw(st.booleans()) else self.expr(depth)
            return ("call", name, [element, value], ())
        return ("call", name, [element], ())

    def raaa_keywords(self):
        """``raaa``'s keywords in any order; an ill tree may repeat one or give it a
        value it refuses."""
        keywords: list = []
        for _ in range(self.draw(_COUNT[3])):
            key = self.draw(_RAAA_KEYWORD)
            if not self.ill and any(key == k for k, _ in keywords):
                continue
            if self.ill and self.draw(st.booleans()):
                value = self.draw(_REFUSED[key])
            else:
                value = self.draw(_ALPHABET if key == "alphabet" else _TERM_COUNT)
            keywords.append((key, value))
        return tuple(keywords)

    def selector(self):
        columns = []
        for width, names in ((1, ["s1"]), (2, ["d1", "d2"]), (3, ["t1", "t2", "t3"])):
            keys = self.draw(_KEYS[width])
            if keys:
                columns += zip(names, zip(*keys))
        return tuple(columns)

    def unary(self, depth: int):
        count = self.draw(_MINUSES)
        atom = self.atom(depth)
        return ("neg", count, atom) if count else atom

    def constant(self):
        """A literal left factor: a number under minus runs and groups."""
        node = ("num", *self.draw(_NUMBER))
        for _ in range(self.draw(_COUNT[2])):
            if self.draw(st.booleans()):
                node = ("neg", 1 + self.draw(_COUNT[2]), node)
            else:
                node = ("group", node)
        return node

    def term(self, depth: int):
        if self.draw(_COUNT[2]) == 0:
            first, fewest = self.constant(), 0 if self.ill else 1
        else:
            first, fewest = self.unary(depth), 0
        factors = [self.unary(depth) for _ in range(fewest + self.draw(_COUNT[2 - fewest]))]
        return ("prod", first, factors) if factors else first

    def expr(self, depth: int):
        first = self.term(depth)
        rest = [(self.draw(_OP), self.term(depth)) for _ in range(self.draw(_COUNT[5]))]
        return ("chain", first, rest) if rest else first


@st.composite
def _program(draw):
    """A list of statements: an equality ``("=", expr, expr)``, a term, which keeps
    a scaled first operand's terms to the result, a whole expression,
    ``("let", name, expr)`` and then the name it bound, or ``("sym", names)`` and
    then its last name."""
    tree = _Tree(draw, draw(_COUNT[2]) == 0)
    statements = []
    for _ in range(1 + draw(_COUNT[2])):
        kind = draw(_COUNT[4])
        if kind == 0:
            statements.append(("=", tree.expr(2), tree.expr(2)))
        elif kind == 3:
            name = draw(_LET_NAME)
            statements += [("let", name, tree.expr(2)), ("name", name)]
        elif kind == 4:
            names = draw(_SYM_NAMES)
            statements += [("sym", names), ("name", names[-1])]
        else:
            statements.append(tree.term(2) if kind == 1 else tree.expr(2))
    return statements


# ---------------------------------------------------------------------------
# Rendering: every node comes back with its column, the one the language gives
# errors about its value.  A group's column is its inner expression's, a minus
# run's its first '-', and a chain's its last operator.

class _Render:
    def __init__(self, rng):
        self.rng = rng  # draws the whitespace: one hypothesis draw per token is slow
        self.parts: list = []
        self.col = 1

    def token(self, text: str, spaced: bool = False) -> int:
        space = self.rng.choice(_SPACES[3:] if spaced else _SPACES)
        self.parts.append(space + text)
        col = self.col + len(space)
        self.col = col + len(text)
        return col

    def node(self, tree):
        kind = tree[0]
        if kind == "num":
            return ("num", self.token(tree[1]), tree[2])
        if kind == "name":
            return ("name", self.token(tree[1]), tree[1])
        if kind == "raaa":
            pos = self.token("raaa")
            self.token("(")
            self.token(")")
            return ("raaa", pos)
        if kind == "neg":
            pos = self.token("-")
            for _ in range(tree[1] - 1):
                self.token("-")
            return ("neg", pos, tree[1] % 2, self.node(tree[2]))
        if kind == "group":
            self.token("(")
            inner = self.node(tree[1])
            self.token(")")
            return ("group", inner[1], inner)
        if kind == "call":
            return self.call(*tree[1:])
        first = self.node(tree[1])
        if kind == "prod":
            factors = []
            for factor in tree[2]:
                pos = self.token("*")
                factors.append(self.node(factor))
            return ("prod", pos, first, factors)
        rest = []
        for op, term in tree[2]:
            pos = self.token(op)
            rest.append((op, self.node(term)))
        return ("chain", pos, first, rest)

    def call(self, name: str, args: list, keywords: tuple):
        """The call's node; its keywords become ``(keyword, column, value)``."""
        pos = self.token(name)
        self.token("(")
        nodes = []
        for i, arg in enumerate(args):
            if i:
                self.token(",")
            nodes.append(self.node(arg))
        rendered = []
        for key, value in keywords:
            if nodes or rendered:
                self.token(",")
            self.token(key)
            self.token("=")
            if isinstance(value, str):  # a number
                rendered.append((key, self.token(value), as_coeff(Fraction(value))))
                continue
            if len(value) == 1 and self.rng.random() < 0.5:
                rendered.append((key, self.token(value[0]), value))
                continue
            rendered.append((key, self.token("("), value))  # a symbol list, one token
            for i, symbol in enumerate(value):
                if i:
                    self.token(",")
                self.token(symbol)
            self.token(")")
        self.token(")")
        return ("call", pos, name, nodes, rendered)

    def statement(self, tree):
        if tree[0] == "=":
            left = self.node(tree[1])
            self.token("=")
            return ("=", left, self.node(tree[2]))
        if tree[0] == "let":
            self.token("let")
            self.token(tree[1], spaced=True)
            self.token("=")
            return ("let", tree[1], self.node(tree[2]))
        if tree[0] == "sym":
            self.token("sym")
            for name in tree[1]:
                self.token(name, spaced=True)
            return tree
        return self.node(tree)

    def program(self, trees: list) -> tuple:
        """(source, the rendered statements, with their columns)."""
        statements = []
        for i, tree in enumerate(trees):
            if i:
                self.token(";")
            statements.append(self.statement(tree))
        self.token("")
        return "".join(self.parts), statements


@st.composite
def _rendered(draw):
    return _Render(draw(st.randoms(use_true_random=False))).program(draw(_program()))


# ---------------------------------------------------------------------------
# The model: one core call per operator, operands run and checked left to right.

class _Expected(Exception):
    def __init__(self, cls, message, pos):
        super().__init__(cls, message, pos)
        self.error = (cls, message, pos)


class _Model:
    def __init__(self, bindings: dict, seed: int):
        self.bindings = dict(bindings)
        self.stream = SplitMix64(seed)
        self.context = Env().context

    def value(self, node):
        kind, pos = node[0], node[1]
        if kind == "num":
            return node[2]
        if kind == "name":
            if node[2] not in self.bindings:
                raise _Expected(UnboundVariableError, f"unbound variable '{node[2]}'", pos)
            return self.bindings[node[2]]
        if kind == "raaa":
            return raaa(self.stream.next_u64())
        if kind == "neg":
            v = self.value(node[3])
            if not node[2]:
                return v
            return neg(v) if isinstance(v, AaaElement) else -v
        if kind == "group":
            return self.value(node[2])
        if kind == "call":
            return self.call(*node[1:])
        if kind == "prod":
            x = self.value(node[2])
            for factor in node[3]:
                y = self.value(factor)
                if not isinstance(y, AaaElement):
                    raise _Expected(ScalarOperandError, LEFT_FACTOR, factor[1])
                x = mul(self.context, x, y) if isinstance(x, AaaElement) else scalar_mul(x, y)
            return x
        x = self.element(node[2])
        for op, term in node[3]:
            y = self.element(term)
            x = add(x, y) if op == "+" else sub(x, y)
        return x

    def element(self, node):
        v = self.value(node)
        if not isinstance(v, AaaElement):
            raise _Expected(ScalarOperandError, NOT_ELEMENT, node[1])
        return v

    def call(self, pos: int, name: str, args: list, keywords: list):
        """A builtin's value from ``access`` or ``rng.raaa``; its keywords are checked
        in turn before any argument runs, its arguments run left to right, but a
        replacement value runs before the element it goes into."""
        if name == "raaa":
            options = self.raaa_options(pos, keywords)
            seed = self.value(args[0]) if args else self.stream.next_u64()
            if not isinstance(seed, int):
                raise _Expected(EvalError, "raaa() seed must be an integer", args[0][1])
            return self.library(pos, lambda s: raaa(s, **options), seed)
        selector = {key: value for key, _, value in keywords}
        if name == "replace":
            value = self.value(args[1])
            return self.library(pos, access.replace, self.element(args[0]),
                                KeySelector(**selector), value)
        element = self.element(args[0])
        if name == "extract":
            return self.library(pos, access.extract, element, KeySelector(**selector))
        return self.library(pos, getattr(access, name), element, *map(self.value, args[1:]))

    @staticmethod
    def raaa_options(pos: int, keywords: list) -> dict:
        options: dict = {}
        for key, col, value in keywords:
            if key in options:
                raise _Expected(EvalError, f"duplicate keyword argument '{key}'", pos)
            if key == "alphabet":
                if not isinstance(value, tuple):
                    raise _Expected(EvalError, "'alphabet' takes symbol names", col)
            elif not isinstance(value, int):
                raise _Expected(EvalError, f"'{key}' must be an integer >= 0", col)
            elif value > MAX_RAAA_TERMS:
                raise _Expected(EvalError, f"'{key}' must be at most {MAX_RAAA_TERMS}", col)
            options[key] = value
        return options

    @staticmethod
    def library(pos: int, function, *args):
        """``function(*args)``; an error it raises is the call's EvalError."""
        try:
            return function(*args)
        except (AlgebraError, TypeError, ValueError) as exc:
            raise _Expected(EvalError, str(exc), pos) from None

    def statement(self, node):
        if node[0] == "=":
            return self.element(node[1]) == self.element(node[2])
        if node[0] == "let":
            self.bindings[node[1]] = self.element(node[2])
            return None
        if node[0] == "sym":
            self.bindings.update((name, from_symbols([name])) for name in node[1])
            return None
        return self.element(node)


_BINDINGS = st.fixed_dictionaries({"a": mixed_elements, "b": mixed_elements, "c": mixed_elements})


def _check(rendered, bindings: dict, seed: int) -> None:
    """Run the rendered program and the model side by side: the same values, or
    the same error, and the same seeds drawn."""
    src, statements = rendered
    model = _Model(bindings, seed)
    try:
        expected = [model.statement(s) for s in statements]
    except _Expected as exc:
        expected = exc.error
    env = Env(seed=seed)
    env.bindings.update(bindings)
    try:
        results = run_program(src, env)
    except ExprError as exc:
        assert (type(exc), exc.message, exc.pos) == expected, src
    else:
        assert isinstance(expected, list), (src, expected)
        for result, want in zip(results, expected, strict=True):
            if want is None or isinstance(want, bool):
                assert result is want, src
            else:
                assert serialize(result) == serialize(want), src
                _assert_clean(result)
    # every raaa() that ran took the session's next seed, in order
    assert env.next_seed() == model.stream.next_u64(), src


def _num(text: str):
    return ("num", text, as_coeff(Fraction(text)))


def _call(name: str, *args, **selector):
    return ("call", name, list(args), tuple(selector.items()))


_A, _B, _C = ("name", "a"), ("name", "b"), ("name", "c")


class TestExpressionsAgainstCore:
    @settings(max_examples=250, deadline=None)
    @given(_rendered(), _BINDINGS, st.integers(0, 2**64 - 1))
    def test_value_or_error_matches_the_core_calls(self, rendered, bindings, seed):
        _check(rendered, bindings, seed)

    @pytest.mark.parametrize(
        "program",
        [
            pytest.param([_call("single", _num("2"))], id="single(2)"),
            pytest.param([_call("extract", ("neg", 1, _num("3/2")), s1=("a",))],
                         id="extract(-3/2, s1=a)"),
            pytest.param([_call("set_double",
                                ("chain", ("prod", _num("2"), [_A]), [("-", _B)]),
                                _call("double", _C))],
                         id="set_double(2*a - b, double(c))"),
            pytest.param([_call(f"set_{part}", _A, _num("0"))
                          for part in ("single", "double", "triple")], id="set_*(a, 0)"),
            pytest.param([_call("replace", _A, _num("3/2"), s1=("a", "b"), d1=("a", "c"),
                                d2=("b", "d"))], id="replace(a, 3/2, s1=(a, b), ...)"),
            pytest.param([_call("raaa", _num("7")), _call("raaa", ("neg", 1, _num("7")))],
                         id="raaa(7)"),
            pytest.param([("let", "v", ("chain", ("prod", _num("2"), [_A]), [("-", _B)])),
                          ("name", "v")], id="let v = 2*a - b; v"),
            pytest.param([("let", "v", ("neg", 1, _num("2"))), ("name", "v")], id="let v = -2; v"),
            pytest.param([("let", "v", _A), ("sym", ["v", "b", "v"]),
                          ("prod", ("name", "v"), [_B])], id="let v = a; sym v b v; v*b"),
            pytest.param([_call("raaa", _num("7"), alphabet=("a", "x"), n1="2", n2="4/2",
                                n3="1")], id="raaa(7, alphabet=(a, x), n1=2, ...)"),
            pytest.param([_call("raaa", n3="1", alphabet=("b",)), ("raaa",)],
                         id="raaa(n3=1, alphabet=b); raaa()"),
            # keywords raaa refuses: checked in turn, before the seed runs or is drawn
            pytest.param([_call("raaa", _num("1"), n1="3/2")], id="raaa(1, n1=3/2)"),
            pytest.param([_call("raaa", n1="1", n2="100001")], id="raaa(n1=1, n2=100001)"),
            pytest.param([_call("raaa", ("raaa",), alphabet="2")], id="raaa(raaa(), alphabet=2)"),
            pytest.param([("call", "raaa", [], (("n1", "1"), ("n2", "3/2"), ("n1", "2")))],
                         id="raaa(n1=1, n2=3/2, n1=2)"),
            pytest.param([("call", "raaa", [("name", "nope")], (("n1", "1"), ("n1", "1")))],
                         id="raaa(nope, n1=1, n1=1)"),
            pytest.param([("call", "raaa", [], (("alphabet", ("a",)), ("alphabet", "2")))],
                         id="raaa(alphabet=a, alphabet=2)"),
            # arguments the library or the seed check refuses, at the call's column
            pytest.param([_call("raaa", _num("1/2"))], id="raaa(1/2)"),
            pytest.param([_call("raaa", ("prod", _num("2"), [_A]))], id="raaa(2*a)"),
            pytest.param([_call("set_single", _A, _num("5"))], id="set_single(a, 5)"),
            pytest.param([_call("set_single", _A, _call("double", _B))],
                         id="set_single(a, double(b))"),
            pytest.param([_call("replace", ("raaa",), ("raaa",), s1=("a",))],
                         id="replace(raaa(), raaa(), s1=a)"),
            # the replacement value runs first: its seed is drawn before the number fails
            pytest.param([_call("replace", _num("2"), ("raaa",), s1=("a",))],
                         id="replace(2, raaa(), s1=a)"),
        ],
    )
    @settings(max_examples=20, deadline=None)
    @given(_BINDINGS, st.integers(0, 2**64 - 1), st.randoms(use_true_random=False))
    def test_builtins_and_let(self, program, bindings, seed, rng):
        _check(_Render(rng).program(program), bindings, seed)


class TestScaledOperandsAreClean:
    """Scaled operands whose coefficients come out integral, or zero, in every
    position of a chain: the rows a random tree reaches only now and then."""

    H = "+1/2a +3/4a.b +2/3(a.b)c"

    @pytest.mark.parametrize(
        "src, expected",
        [
            ("2*h", lambda h, a: scalar_mul(2, h)),
            ("-12*h", lambda h, a: scalar_mul(-12, h)),
            ("3/2*(4/3*h)", lambda h, a: scalar_mul(2, h)),
            ("12*h + h - a", lambda h, a: sub(scalar_mul(13, h), a)),
            ("a - 12*h", lambda h, a: sub(a, scalar_mul(12, h))),
            ("0*h", lambda h, a: zero()),
            ("0*h + a", lambda h, a: a),
            ("-(2*h) - 6*(h - a)", lambda h, a: add(scalar_mul(-8, h), scalar_mul(6, a))),
            ("h - 2*h + h", lambda h, a: zero()),
        ],
    )
    def test_value_and_invariants(self, src, expected):
        h, a = parse(self.H), parse("+1a")
        env = Env()
        env.bindings.update(h=h, a=a)
        (result,) = run_program(src, env)
        assert serialize(result) == serialize(expected(h, a))
        _assert_clean(result)

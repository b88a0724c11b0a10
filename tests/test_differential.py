"""A differential oracle for the statement language's expressions.

Hypothesis draws random expression trees over bound names: ``+``/``-``
chains, runs of unary minus, literal left factors (0, negatives and
fractions included, under minuses and groups), ``*``, nested groups,
``raaa()`` leaves that take the session's seeds, and ``=``.  Each tree is
rendered with random ``\\s`` whitespace and redundant parentheses, and
``_Model`` works out what it must give straight from ``core`` (``add``,
``sub``, ``neg``, ``scalar_mul``, ``mul``) and ``rng.raaa``, one operator
at a time, in the order the language runs and checks operands.  Ill-typed
trees are rendered too: a bare number in a chain or as a statement, a
number as a right factor, ``2*(3)`` and an unbound name; their error's
class, message and column come from the tree.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiassoc import (
    AaaElement,
    Env,
    ExprError,
    ScalarOperandError,
    UnboundVariableError,
    add,
    mul,
    neg,
    parse,
    raaa,
    scalar_mul,
    serialize,
    sub,
    zero,
)
from antiassoc.core import as_coeff
from antiassoc.exprlang import run_program
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
# ("group", expr), ("prod", first, [factor, ...]), ("chain", first, [(op, term), ...]).
# ``ill`` lets a number or an unbound name stand where an element must.  Every
# draw is from a strategy built once: building strategies per node is slow.

_ATOMS = {
    (deep, ill): st.sampled_from(["name"] * 4 + ["raaa"] + ["group"] * deep + ["num", "unbound"] * ill)
    for deep in (False, True)
    for ill in (False, True)
}
_COUNT = {n: st.integers(0, n) for n in (1, 2, 3, 5)}
_MINUSES = st.sampled_from([0, 0, 0, 1, 2, 3])
_NAME = st.sampled_from("abc")
_OP = st.sampled_from("+-")


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
        return ("group", self.expr(depth - 1))

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
    """A list of statements: an (expression, expression) equality, a term, which
    keeps a scaled first operand's terms to the result, or a whole expression."""
    tree = _Tree(draw, draw(_COUNT[2]) == 0)
    statements = []
    for _ in range(1 + draw(_COUNT[2])):
        kind = draw(_COUNT[2])
        statements.append((tree.expr(2), tree.expr(2)) if kind == 0 else tree.term(2) if kind == 1
                          else tree.expr(2))
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

    def token(self, text: str) -> int:
        space = self.rng.choice(_SPACES)
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

    def statement(self, tree):
        if isinstance(tree, tuple) and tree and isinstance(tree[0], tuple):  # an equality
            left = self.node(tree[0])
            self.token("=")
            return ("=", left, self.node(tree[1]))
        return self.node(tree)


@st.composite
def _rendered(draw):
    """(source, the rendered statements, with their columns)."""
    render = _Render(draw(st.randoms(use_true_random=False)))
    statements = []
    for i, tree in enumerate(draw(_program())):
        if i:
            render.token(";")
        statements.append(render.statement(tree))
    render.token("")
    return "".join(render.parts), statements


# ---------------------------------------------------------------------------
# The model: one core call per operator, operands run and checked left to right.

class _Expected(Exception):
    def __init__(self, cls, message, pos):
        super().__init__(cls, message, pos)
        self.error = (cls, message, pos)


class _Model:
    def __init__(self, bindings: dict, seed: int):
        self.bindings = bindings
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

    def statement(self, node):
        if node[0] == "=":
            return self.element(node[1]) == self.element(node[2])
        return self.element(node)


_BINDINGS = st.fixed_dictionaries({"a": mixed_elements, "b": mixed_elements, "c": mixed_elements})


class TestExpressionsAgainstCore:
    @settings(max_examples=250, deadline=None)
    @given(_rendered(), _BINDINGS, st.integers(0, 2**64 - 1))
    def test_value_or_error_matches_the_core_calls(self, rendered, bindings, seed):
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
                if isinstance(want, bool):
                    assert result is want, src
                else:
                    assert serialize(result) == serialize(want), src
                    _assert_clean(result)
        # every raaa() that ran took the session's next seed, in order
        assert env.next_seed() == model.stream.next_u64(), src


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

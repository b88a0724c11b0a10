"""Statement language over algebra elements: lexer, and a parser that
compiles each statement to a closure.  A line is parsed in full before any
of its statements runs.

Statements (separated by ``;``):

    sym a b c          bind each name to its generator element
    let v = expr       bind a name to the value of an expression
    expr               evaluate, yielding an element
    expr = expr        equality query, yielding true or false

Expression grammar.  ``*`` binds tighter than ``+``/``-`` and is
left-associative, so ``a*b*c`` parses as ``(a*b)*c``; unary minus binds
tighter than ``*``::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-'* atom
    atom    := NUMBER | NAME | NAME '(' args ')' | '(' expr ')'
    args    := arg (',' arg)* | nothing
    arg     := NAME '=' kwvalue | expr
    kwvalue := NUMBER | NAME | '(' NAME (',' NAME)* ')'

The lexer is one ``findall`` pass of one compiled pattern, and a token is a
plain ``(kind, text, column, value)`` tuple.  Whitespace is any character
for which ``str.isspace()`` holds (``\\s`` in ``re``), and names follow
:data:`core.SYMBOL_RE`.  A symbol list, ``'('`` and one or more names that
are not keywords, separated by ``','``, and ``')'``, is one token whose
value is its names, so its names are checked once, by that match.  A
keyword argument takes the names as they are; a call or a group such as
``single(a, b)`` or ``(a, b)`` reads the list's own tokens again.  The
parser reads an expression in one loop over the tokens, recursing only at
a '('.
Numbers are exact rational literals (``2``, ``3/2``), read by ``core._COEFFS``
as :func:`core.as_coeff` reads text.  They are not elements: the algebra has
no unit, so ``2*a`` is scalar action while ``2 + a`` or ``a*2`` is an error.

Builtins: ``single``, ``double``, ``triple``, ``set_single``,
``set_double``, ``set_triple``, ``extract``, ``replace``, ``raaa``.
Keyword arguments name term-key columns (``s1``, ``d1``, ``d2``,
``t1``, ``t2``, ``t3``); their values are symbol names, never
variables.  ``replace(e, v, ...)`` takes the new coefficient as its
second positional argument, and ``set_*(e, 0)`` clears a degree.  A call
is checked, before any of its arguments runs, in one order: the name, the
positional count, each keyword in turn (unknown, given twice, a bad value),
then a selector's columns.
``raaa()`` draws at most :data:`MAX_RAAA_TERMS` terms per degree, and one
``*`` of two elements forms at most :data:`MAX_PRODUCT_TERMS` term products.
Grouping and call parentheses nest at most :data:`MAX_NESTING` deep.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Optional

from . import access
from .core import (
    SYMBOL_RE,
    AaaElement,
    AlgebraContext,
    AlgebraError,
    DEFAULT_CONTEXT,
    _COEFFS,
    _sum,
    from_symbols,
    mul,
)
from .rng import SplitMix64, raaa

__all__ = [
    "ExprError",
    "LexError",
    "ExprSyntaxError",
    "EvalError",
    "UnboundVariableError",
    "ScalarOperandError",
    "Env",
    "run_program",
]


class ExprError(AlgebraError):
    """Base for statement-language errors; ``pos`` is a 1-based column."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
        self.pos = pos


class LexError(ExprError):
    """Illegal character or malformed literal."""


class ExprSyntaxError(ExprError):
    """The token stream does not match the grammar."""


class EvalError(ExprError):
    """A well-formed expression cannot be evaluated."""


class UnboundVariableError(EvalError):
    """A name is used before being bound with ``sym`` or ``let``."""


class ScalarOperandError(EvalError):
    """A bare number appeared where an element is required."""


# ---------------------------------------------------------------------------
# Tokens.  A token is the plain tuple ``(kind, text, pos, value)``: ``kind`` is
# 'name', 'number', 'sym', 'let', one of '+-*()=,;', or 'end'; ``pos`` is a
# 1-based column; ``value`` is a number's value, a symbol list's names, or None.

_KEYWORDS = frozenset({"sym", "let"})
_LISTED = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z_0-9])){SYMBOL_RE.pattern}"
# A match is a token and the whitespace before it; the last group takes any
# other non-space character, so the matches are contiguous.  A symbol list,
# '(' and one or more names that are not keywords, separated by ',', and ')',
# is one '(' token whose value is the names: they are matched here, once.
_TOKEN_RE = re.compile(
    rf"(\s*)(?:(\(\s*{_LISTED}(?:\s*,\s*{_LISTED})*\s*\))|([-+*()=,;])"
    rf"|({SYMBOL_RE.pattern})|([0-9]+(?:/[0-9]+)?)|(\S))"
)


def tokenize(src: str) -> list[tuple]:
    """Split source into tokens with 1-based positions; ends with 'end'.

    One ``findall`` pass matches every token, and the columns are a running
    sum of the lengths matched.  A symbol list such as ``(a, b)`` is one
    token: ``'('`` at its column, with the tuple of its names as its value.
    """
    return _lex(src, 0, len(src))


def _lex(src: str, start: int, end: int) -> list[tuple]:
    """The tokens of ``src[start:end]`` and 'end', at the columns of ``src``."""
    tokens: list[tuple] = []
    append = tokens.append
    pos = start + 1
    for space, names, punct, name, number, other in _TOKEN_RE.findall(src, start, end):
        pos += len(space)
        if punct:
            append((punct, punct, pos, None))
            pos += 1
        elif name:
            append((name if name in _KEYWORDS else "name", name, pos, None))
            pos += len(name)
        elif names:
            append(("(", "(", pos, tuple(names[1:-1].replace(",", " ").split())))
            pos += len(names)
        elif number:
            try:
                value = _COEFFS[number]
            except ZeroDivisionError:
                raise LexError("zero denominator in rational literal", pos) from None
            except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise LexError(f"number longer than {limit} digits", pos) from None
            append(("number", number, pos, value))
            pos += len(number)
        else:
            raise LexError(f"illegal character {other!r}", pos)
    append(("end", "", end + 1, None))
    return tokens


# ---------------------------------------------------------------------------
# Compilation.  An expression compiles to a node whose first field, ``pos``, is
# the column that errors about its value point at.  A number is known here, as
# numbers come only from literals: ``_Number((pos, value))``, a bare tuple subclass
# that ``type(node) is _Number`` tells apart (a typing record costs start-up time).
# Any other expression is ``(pos, items)``, whose value is the sum of
# ``scale * run(env)`` over its items ``(scale, run)``: one for a name, a call or
# a product, and one per operand for a '+'/'-' chain, with each unary minus,
# literal left factor of one factor and group folded in.  The parser reads an
# expression in one loop over the token list, by index, unpacking each token, and
# recurses only at a '('; an operand that is a name or a call goes straight into
# its chain's items.  A number that stands where an element must compiles to a
# run that raises that place's ScalarOperandError, so the error comes in its
# turn.  Closures look up ``_sum``, ``mul``, ``access`` etc. as module globals
# when they run.

class _Number(tuple):
    __slots__ = ()


def _expected(what: str, tok: tuple) -> ExprSyntaxError:
    found = "end of input" if tok[0] == "end" else repr(tok[1])
    return ExprSyntaxError(f"expected {what}, found {found}", tok[2])


class _Parser:
    """Reads ``tokens`` by index: each method but :meth:`parse_program` reads from
    ``tokens[i]`` and returns what it read and the index after it.  No index passes
    'end'."""

    def __init__(self, tokens: list[tuple], src: str):
        self.src = src
        self.tokens = tokens
        self.depth = 0  # '(' levels open around the current token

    def parse_program(self) -> list[Callable]:
        tokens, stmts, i = self.tokens, [], 0
        while True:
            while tokens[i][0] == ";":
                i += 1
            if tokens[i][0] == "end":
                return stmts
            run, i = self.statement(i)
            stmts.append(run)
            kind, text, pos, _ = tokens[i]
            if kind != ";" and kind != "end":
                raise ExprSyntaxError(f"expected ';' or end of statement, found {text!r}", pos)

    def statement(self, i: int) -> tuple:
        tokens = self.tokens
        kind = tokens[i][0]
        if kind == "sym":
            names = []
            i += 1
            while tokens[i][0] == "name":
                names.append(tokens[i][1])
                i += 1
            if not names:
                message = "expected at least one symbol name after 'sym'"
                raise ExprSyntaxError(message, tokens[i][2])
            return (lambda env: env.bindings.update({n: from_symbols([n]) for n in names})), i
        if kind == "let":
            tok = tokens[i + 1]
            if tok[0] != "name":
                raise _expected("a name to bind", tok)
            if tokens[i + 2][0] != "=":
                raise _expected("'='", tokens[i + 2])
            node, i = self.expr(i + 3)
            value_of, name = _element(node), tok[1]

            def let(env):
                env.bindings[name] = value_of(env)

            return let, i
        node, i = self.expr(i)
        left = _element(node)
        if tokens[i][0] == "=":
            node, i = self.expr(i + 1)
            right = _element(node)
            return (lambda env: left(env) == right(env)), i
        return left, i

    def expr(self, i: int) -> tuple:
        """``term (('+'|'-') term)*``, a term ``unary ('*' unary)*`` and a unary
        ``'-'* atom``.  A chain of '+'/'-' or of '*' compiles to one closure, so its
        length is not limited by recursion; its column is that of its last operator."""
        tokens = self.tokens
        items: list = []  # the chain's items
        sign, op = 1, None  # the sign of the term being read; the last '+'/'-' column
        while True:
            first, rest = None, []  # a term's first factor, and (star, run) per one after
            while True:
                kind, text, pos, value = tokens[i]
                start, odd = pos, False
                while kind == "-":
                    odd = not odd
                    i += 1
                    kind, text, pos, value = tokens[i]
                if kind == "name":
                    i += 1
                    if tokens[i][0] == "(":
                        args, i = self.nested(i, self.call_args)
                        run = _call(text, pos, *args)
                    else:
                        def run(env, name=text, col=pos):  # defaults: this name, not the last
                            try:
                                return env.bindings[name]
                            except KeyError:
                                message = f"unbound variable '{name}'"
                                raise UnboundVariableError(message, col) from None
                    if tokens[i][0] != "*" and (first is None or type(first) is _Number):
                        # the whole term, or a literal factor's one factor: one item
                        col, scale = (start, sign) if first is None else (
                            star, first[1] if sign == 1 else -first[1])
                        items.append((-scale if odd else scale, run))
                        break
                    node = pos, [(1, run)]
                elif kind == "number":
                    i += 1
                    node = _Number((pos, value))
                else:
                    node, i = self.nested(i, self.expr)
                if start != pos:  # minuses before the atom
                    node = (_Number((start, -node[1] if odd else node[1])) if type(node) is _Number
                            else (start, _items(node, -1 if odd else 1)))
                if first is None:
                    first = node
                elif type(first) is _Number:  # a literal left factor scales its one factor
                    first = star, _items(node, first[1], _LEFT_FACTOR)
                else:
                    rest.append((star, _element(node, _LEFT_FACTOR)))
                if tokens[i][0] != "*":
                    node = (star, [(1, _product(_element(first), rest))]) if rest else first
                    if op is None and tokens[i][0] not in ("+", "-"):
                        return node, i
                    items += _items(node, sign)
                    break
                star = tokens[i][2]
                i += 1
            kind, _, pos, _ = tokens[i]
            if kind == "+" or kind == "-":
                sign, op = 1 if kind == "+" else -1, pos
                i += 1
            else:
                return ((col, items) if op is None else (op, items)), i

    def nested(self, i: int, read: Callable) -> tuple:
        """Read '(', ``read`` one level deeper and ')'; nothing else starts an atom.  A
        symbol list is read from its own tokens, so a call or a group reads, and
        fails, as if its names had been lexed one by one."""
        tok = self.tokens[i]
        if tok[0] != "(":
            raise _expected("an expression", tok)
        if tok[3] is not None:
            outer, close = self.tokens, self.src.index(")", tok[2])
            self.tokens = [("(", "(", tok[2], None), *_lex(self.src, tok[2], close + 1)]
            inner = self.nested(0, read)[0]
            self.tokens = outer
            return inner, i + 1
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", tok[2])
        self.depth += 1
        inner, i = read(i + 1)
        if self.tokens[i][0] != ")":
            raise _expected("')'", self.tokens[i])
        self.depth -= 1
        return inner, i + 1

    def call_args(self, i: int) -> tuple:
        tokens, args, kwargs = self.tokens, [], []
        if tokens[i][0] == ")":
            return ((), ()), i
        while True:
            kind, text, pos, _ = tokens[i]
            if kind == "name" and tokens[i + 1][0] == "=":
                kwargs.append((text, *self.kwvalue(i + 2)))
                i += 3
            else:
                if kwargs:
                    raise ExprSyntaxError("positional argument after keyword argument", pos)
                node, i = self.expr(i)
                args.append(_argument(node))
            if tokens[i][0] != ",":
                return (tuple(args), tuple(kwargs)), i
            i += 1

    def kwvalue(self, i: int) -> tuple[int, object]:
        """A keyword's ``(pos, value)``, from its one token."""
        tokens = self.tokens
        kind, text, pos, value = tokens[i]
        if kind == "number" or kind == "(" and value is not None:  # a symbol list
            return pos, value
        if kind == "name":
            return pos, (text,)
        if kind == "(":  # the lexer matched no symbol list: find the error
            i += 1
            while tokens[i][0] == "name" and tokens[i + 1][0] == ",":
                i += 2
            if tokens[i][0] != "name":
                raise _expected("a symbol name", tokens[i])
            if tokens[i + 1][0] != ")":
                raise _expected("')'", tokens[i + 1])
        raise ExprSyntaxError(
            "expected a number, a symbol name or a parenthesized symbol list", pos
        )


_NOT_ELEMENT = "a bare number cannot be used as an element (the algebra has no unit)"
_LEFT_FACTOR = "a number may only appear as the left factor of '*'"


def _items(node: tuple, scale, message: str = _NOT_ELEMENT) -> list:
    """``scale`` times ``node`` as items; a number's run raises ``message``."""
    if type(node) is _Number:
        def misplaced(env):
            raise ScalarOperandError(message, node[0])

        return [(scale, misplaced)]
    items = node[1]
    if scale == 1:
        return items
    # most scales are 1, and a Fraction times 1 costs about 0.7 us
    return [(scale if s == 1 else scale * s, run) for s, run in items]


def _element(node: tuple, message: str = _NOT_ELEMENT) -> Callable:
    """``run(env)`` giving the element ``node`` stands for; a number's raises."""
    items = _items(node, 1, message)
    if len(items) == 1 and items[0][0] == 1:
        return items[0][1]
    # operands run left to right, then ``core._sum`` merges them
    return lambda env: _sum([(scale, run(env)) for scale, run in items])


def _argument(node: tuple) -> tuple:
    """A call argument: ``(pos, value run, element run)``."""
    run = _element(node)
    return node[0], (lambda env: node[1]) if type(node) is _Number else run, run


def _product(first: Callable, rest: list[tuple[int, Callable]]) -> Callable:
    """Elements times elements; ``rest`` holds (column of '*', run) per factor.  A
    literal left factor never gets here: it is a chain's scale."""

    def run(env):
        x = first(env)
        for star, value_of in rest:
            y = value_of(env)
            # mul pairs singles with singles, doubles with singles, singles with doubles
            n1 = len(x.singles)
            pairs = (n1 + len(x.doubles)) * len(y.singles) + n1 * len(y.doubles)
            if pairs > MAX_PRODUCT_TERMS:
                raise EvalError(
                    f"'*' would form {pairs} term products, more than {MAX_PRODUCT_TERMS}", star
                )
            x = mul(env.context, x, y)
        return x

    return run


def parse_program(src: str) -> list[Callable]:
    """Tokenize and compile a sequence of ';'-separated statements.

    Returns one function per statement: ``run(env)`` executes it in an
    :class:`Env` and returns None for ``sym`` and ``let``, an element for
    an expression and a bool for an equality.  Only syntax errors are
    raised here; evaluation errors are raised when a statement runs.
    Parentheses, grouping or a call's, nest at most :data:`MAX_NESTING`
    deep: the '(' that opens one level more is an :class:`ExprSyntaxError`.
    A chain such as ``a+b-c`` or ``a*b*c``, or a run of unary minuses, is
    not nesting, and may be of any length.
    """
    return _Parser(tokenize(src), src).parse_program()


# ---------------------------------------------------------------------------
# Evaluation

class Env:
    """Mutable interpreter session: context, bindings, seed stream for raaa().

    A ``context`` that is not an :class:`AlgebraContext` is a TypeError; a
    seed that is not an ``int``, or is a ``bool``, is a ValueError, as in
    :func:`raaa`.
    """

    def __init__(self, context: AlgebraContext = DEFAULT_CONTEXT, seed: int = 0) -> None:
        if not isinstance(context, AlgebraContext):
            raise TypeError(f"context must be an AlgebraContext, not {type(context).__name__}")
        self.context = context
        self.bindings: dict[str, AaaElement] = {}
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        self._seed_stream = SplitMix64(seed)  # checks the seed before anything changes
        self.seed = seed

    def next_seed(self) -> int:
        """Seed for the next raaa() call that has no explicit seed."""
        return self._seed_stream.next_u64()


# Per degree, so that no line runs without limit; rng.raaa itself is not capped.
MAX_RAAA_TERMS = 100_000
# Term products per '*', so that no line runs without limit; core.mul itself is
# not capped.  2e6 products of distinct singles took about 1.2 s and 200 MB
# (CPython 3.11, shared 2-CPU machine); eval_large's largest forms 129,600.
MAX_PRODUCT_TERMS = 2_000_000
# Levels of '(', grouping or a call's: the deepest input parses and runs within
# the default recursion limit even when called from 400 frames deep.
MAX_NESTING = 100


# A row of _BUILTINS is (the positional counts it takes, the error for any
# other count, {keyword: check}, run).  check(name, value) returns None, or
# the error for a bad value; run(env, args, options) runs the arguments.

def _symbols(name: str, value) -> Optional[str]:
    return None if isinstance(value, tuple) else f"'{name}' takes symbol names, not a number"


def _term_count(name: str, value) -> Optional[str]:
    if not isinstance(value, int):  # a literal, so never negative
        return f"'{name}' must be an integer >= 0"
    return f"'{name}' must be at most {MAX_RAAA_TERMS}" if value > MAX_RAAA_TERMS else None


def _degree(count: int, name: str) -> tuple:
    """The row for ``access.<name>(element, *values)``, the element run first.  The
    function is looked up as the call runs, so a wrapper put on it later is seen."""
    def run(env, args, _):
        return getattr(access, name)(args[0][2](env), *(a[1](env) for a in args[1:]))

    return (count,), f"takes {count} positional argument(s), got {{}}", {}, run


def _replace(env: Env, args: tuple, selector) -> AaaElement:
    value = args[1][1](env)  # the value runs before the element it goes into
    return access.replace(args[0][2](env), selector, value)


def _raaa(env: Env, args: tuple, options: dict) -> AaaElement:
    seed = args[0][1](env) if args else env.next_seed()
    if not isinstance(seed, int):
        raise EvalError("raaa() seed must be an integer", args[0][0])
    return raaa(seed, **options)


_SELECTOR = dict.fromkeys(access.KeySelector.__slots__, _symbols)
_BUILTINS = {
    **{name: _degree(1, name) for name in ("single", "double", "triple")},
    **{name: _degree(2, name) for name in ("set_single", "set_double", "set_triple")},
    "extract": ((1,), "takes 1 positional argument(s), got {}", _SELECTOR,
                lambda env, args, selector: access.extract(args[0][2](env), selector)),
    "replace": ((2,), "takes 2 positional argument(s), got {}", _SELECTOR, _replace),
    "raaa": ((0, 1), "takes at most one positional argument (the seed)",
             {"alphabet": lambda name, value: None if isinstance(value, tuple)
              else "'alphabet' takes symbol names",
              "n1": _term_count, "n2": _term_count, "n3": _term_count}, _raaa),
}


def _call(fn: str, pos: int, args: tuple, kwargs: tuple) -> Callable:
    """``run(env)`` for a call of builtin ``fn`` at column ``pos``: it checks the call
    in the order the module docstring gives, then runs it.  ``args`` has ``(pos, value
    run, element run)`` per positional argument, ``kwargs`` ``(name, pos, value)`` per
    keyword, its value a number or a tuple of symbol names.  The builtin runs its own
    arguments; every error is a run-time error, and a refused call runs none of them."""

    def run(env: Env) -> AaaElement:
        row = _BUILTINS.get(fn)
        if row is None:
            raise EvalError(f"unknown function '{fn}'", pos)
        counts, takes, keywords, builtin = row
        if len(args) not in counts:
            raise EvalError(f"{fn}() {takes.format(len(args))}", pos)
        options: dict = {}
        for name, col, value in kwargs:  # col, not pos: pos is the call's
            if name not in keywords:
                if keywords:
                    raise EvalError(f"{fn}() has no keyword argument '{name}'", pos)
                raise EvalError(f"{fn}() takes no keyword arguments ('{name}')", pos)
            if name in options:
                raise EvalError(f"duplicate keyword argument '{name}'", pos)
            problem = keywords[name](name, value)
            if problem is not None:
                raise EvalError(problem, col)
            options[name] = value
        try:
            if keywords is _SELECTOR:
                options = access.KeySelector._trusted(**options)  # names the lexer matched
            return builtin(env, args, options)
        except ExprError:
            raise
        except (AlgebraError, TypeError, ValueError) as exc:
            raise EvalError(str(exc), pos) from exc

    return run


def run_program(src: str, env: Env) -> list:
    """Compile all of ``src``, then run its statements in order.

    Returns one result per statement (see :func:`parse_program`).  A
    syntax error anywhere in ``src`` runs none of it; an evaluation error
    stops the run, and the bindings made before it stay in ``env``.  Only
    :class:`ExprError` is raised, however deep the input is nested.
    """
    return [run(env) for run in parse_program(src)]

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

The lexer is one ``findall`` pass of one compiled pattern.  Whitespace
is any character for which ``str.isspace()`` holds (``\\s`` in ``re``), and
names follow :data:`core.SYMBOL_RE`.  A symbol list, ``'('`` and one or more
names that are not keywords, separated by ``','``, and ``')'``, is one token
whose value is its names, so its names are checked once, by that match.  A
keyword argument takes the names as they are; a call or a group such as
``single(a, b)`` or ``(a, b)`` reads the list's own tokens again.  Numbers
are exact rational literals (``2``, ``3/2``).  They are not elements: the
algebra has no unit, so ``2*a`` is scalar action while ``2 + a`` or ``a*2``
is an error.

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
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import access
from .core import (
    SYMBOL_RE,
    AaaElement,
    AlgebraContext,
    AlgebraError,
    DEFAULT_CONTEXT,
    _sum,
    as_coeff,
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
    """Token stream does not match the grammar."""


class EvalError(ExprError):
    """A well-formed expression cannot be evaluated."""


class UnboundVariableError(EvalError):
    """A name is used before being bound with ``sym`` or ``let``."""


class ScalarOperandError(EvalError):
    """A bare number appeared where an element is required."""


# ---------------------------------------------------------------------------
# Tokens

class Token(NamedTuple):
    kind: str  # 'name', 'number', 'sym', 'let', one of '+-*()=,;', or 'end'
    text: str
    pos: int
    value: object = None  # a number's value, or the names of a symbol list


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


def tokenize(src: str) -> list[Token]:
    """Split source into tokens with 1-based positions; ends with 'end'.

    One ``findall`` pass matches every token, and the columns are a running
    sum of the lengths matched.  A symbol list such as ``(a, b)`` is one
    token: ``'('`` at its column, with the tuple of its names as its value.
    """
    return _lex(src, 0, len(src))


def _lex(src: str, start: int, end: int) -> list[Token]:
    """The tokens of ``src[start:end]`` and 'end', at the columns of ``src``."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # new() skips NamedTuple's __new__
    pos = start + 1
    for space, names, punct, name, number, other in _TOKEN_RE.findall(src, start, end):
        pos += len(space)
        if punct:
            append(new(Token, (punct, punct, pos, None)))
            pos += 1
        elif name:
            append(new(Token, (name if name in _KEYWORDS else "name", name, pos, None)))
            pos += len(name)
        elif names:
            append(new(Token, ("(", "(", pos, tuple(names[1:-1].replace(",", " ").split()))))
            pos += len(names)
        elif number:
            num, slash, den = number.partition("/")
            try:
                value = as_coeff(Fraction(int(num), int(den))) if slash else int(num)
            except ZeroDivisionError:
                raise LexError("zero denominator in rational literal", pos) from None
            except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise LexError(f"number longer than {limit} digits", pos) from None
            append(new(Token, ("number", number, pos, value)))
            pos += len(number)
        else:
            raise LexError(f"illegal character {other!r}", pos)
    append(new(Token, ("end", "", end + 1, None)))
    return tokens


# ---------------------------------------------------------------------------
# Compilation.  An expression compiles to a node whose first field, ``pos``, is
# the column that errors about its value point at.  Numbers come only from
# literals, so they are known here: ``_Number((pos, value))``, a bare tuple type,
# as a NamedTuple costs start-up time.  Any other expression is ``(pos, items)``:
# its value is the sum of ``scale * run(env)`` over its items ``(scale, run)``.  A
# name, a call or a product is one item ``(1, run)``; a '+'/'-' chain has one per
# operand, with each literal left factor of one factor, unary minus and group
# inside it folded in.  Every run gives an element: a number that stands where
# an element must compiles to a run that raises that place's ScalarOperandError,
# so the error comes in its turn.  Closures look up ``_sum``, ``mul``, ``access``
# etc. as module globals when they run.

class _Number(tuple):
    __slots__ = ()


class _Parser:
    def __init__(self, tokens: list[Token], src: str):
        self.src = src
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]
        self.depth = 0  # '(' levels open around the current token

    def advance(self) -> Token:
        """Return the current token ``tok`` and move on; 'end' is never passed."""
        tok = self.tok
        if tok.kind != "end":
            self.i += 1
            self.tok = self.tokens[self.i]
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.tok
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ExprSyntaxError(f"expected {wanted}, found {found}", tok.pos)
        return self.advance()

    def parse_program(self) -> list[Callable]:
        stmts: list[Callable] = []
        while True:
            while self.tok.kind == ";":
                self.advance()
            if self.tok.kind == "end":
                return stmts
            stmts.append(self.statement())
            tok = self.tok
            if tok.kind == ";":
                self.advance()
            elif tok.kind != "end":
                raise ExprSyntaxError(
                    f"expected ';' or end of statement, found {tok.text!r}", tok.pos
                )

    def statement(self) -> Callable:
        tok = self.tok
        if tok.kind == "sym":
            self.advance()
            names = []
            while self.tok.kind == "name":
                names.append(self.advance().text)
            if not names:
                raise ExprSyntaxError(
                    "expected at least one symbol name after 'sym'", self.tok.pos
                )
            return lambda env: env.bindings.update({n: from_symbols([n]) for n in names})
        if tok.kind == "let":
            self.advance()
            name = self.expect("name", "a name to bind").text
            self.expect("=")
            value_of = _element(self.expr())

            def let(env):
                env.bindings[name] = value_of(env)

            return let
        left = _element(self.expr())
        if self.tok.kind == "=":
            self.advance()
            right = _element(self.expr())
            return lambda env: left(env) == right(env)
        return left

    # A chain of '+'/'-' or of '*' compiles to one closure, so its length is
    # not limited by recursion; its column is that of its last operator.

    def expr(self) -> tuple:
        node = self.term()
        if self.tok.kind not in ("+", "-"):
            return node
        items = [*_items(node, 1)]
        while self.tok.kind in ("+", "-"):
            op = self.advance()
            items += _items(self.term(), 1 if op.kind == "+" else -1)
        return op.pos, items

    def term(self) -> tuple:
        first = self.unary()
        if self.tok.kind != "*":
            return first
        rest = []
        while self.tok.kind == "*":
            op = self.advance()
            factor = self.unary()
            if type(first) is _Number:  # a literal left factor scales its one factor
                first = op.pos, _items(factor, first[1], _LEFT_FACTOR)
            else:
                rest.append((op.pos, _element(factor, _LEFT_FACTOR)))
        return (op.pos, [(1, _product(_element(first), rest))]) if rest else first

    def unary(self) -> tuple:
        # '-'* atom: a loop, then the atom in this frame, so nesting costs few frames.
        minus = self.tok
        odd = False
        while self.tok.kind == "-":
            self.advance()
            odd = not odd
        tok = self.tok
        if tok.kind == "number":
            self.advance()
            node = _Number((tok.pos, tok.value))
        elif tok.kind == "name":
            self.advance()
            if self.tok.kind == "(":
                args, kwargs = self.nested(self.call_args)
                node = tok.pos, [(1, lambda env: _call(tok, args, kwargs, env))]
            else:
                node = tok.pos, [(1, _variable(tok.text, tok.pos))]
        else:
            node = self.nested(self.expr)
        if minus is tok:
            return node
        if type(node) is _Number:
            return _Number((minus.pos, -node[1] if odd else node[1]))
        return minus.pos, _items(node, -1 if odd else 1)

    def nested(self, read: Callable):
        """Read '(', ``read()`` one level deeper and ')'; nothing else starts an atom.

        A symbol list is read from its own tokens, so a call or a group reads,
        and fails, as if its names had been lexed one by one.
        """
        tok = self.expect("(", "an expression")
        if tok.value is not None:
            outer, i, close = self.tokens, self.i, self.src.index(")", tok.pos)
            self.tokens = [tok._replace(value=None), *_lex(self.src, tok.pos, close + 1)]
            self.i, self.tok = 0, self.tokens[0]
            inner = self.nested(read)
            self.tokens, self.i, self.tok = outer, i, outer[i]
            return inner
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", tok.pos)
        self.depth += 1
        inner = read()
        self.expect(")")
        self.depth -= 1
        return inner

    def call_args(self) -> tuple[tuple, tuple]:
        args: list[tuple[int, Callable, Callable]] = []
        kwargs: list[tuple[str, int, object]] = []
        if self.tok.kind == ")":
            return tuple(args), tuple(kwargs)
        while True:
            if self.tok.kind == "name" and self.tokens[self.i + 1].kind == "=":
                name = self.advance().text
                self.advance()
                kwargs.append((name, *self.kwvalue()))
            else:
                if kwargs:
                    raise ExprSyntaxError(
                        "positional argument after keyword argument", self.tok.pos
                    )
                args.append(_argument(self.expr()))
            if self.tok.kind != ",":
                return tuple(args), tuple(kwargs)
            self.advance()

    def kwvalue(self) -> tuple[int, object]:
        tok = self.tok
        if tok.kind == "number":
            self.advance()
            return tok.pos, tok.value
        if tok.kind == "name":
            self.advance()
            return tok.pos, (tok.text,)
        if tok.kind == "(":
            self.advance()
            if tok.value is not None:  # a symbol list
                return tok.pos, tok.value
            self.expect("name", "a symbol name")  # the lexer matched no list: find the error
            while self.tok.kind == ",":
                self.advance()
                self.expect("name", "a symbol name")
            self.expect(")")
        raise ExprSyntaxError(
            "expected a number, a symbol name or a parenthesized symbol list", tok.pos
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


def _variable(name: str, pos: int) -> Callable:
    def run(env):
        try:
            return env.bindings[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable '{name}'", pos) from None

    return run


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


def _call(tok: Token, args: tuple, kwargs: tuple, env: Env) -> AaaElement:
    """Check a call of builtin ``tok`` in the order the module docstring gives, then
    run it.  ``args`` has ``(pos, value run, element run)`` per positional argument,
    ``kwargs`` ``(name, pos, value)`` per keyword, its value a number or a tuple of
    symbol names.  The builtin runs its own arguments; every error is a run-time
    error, and a refused call runs none of its arguments."""
    row = _BUILTINS.get(tok.text)
    if row is None:
        raise EvalError(f"unknown function '{tok.text}'", tok.pos)
    counts, takes, keywords, run = row
    if len(args) not in counts:
        raise EvalError(f"{tok.text}() {takes.format(len(args))}", tok.pos)
    options: dict = {}
    for name, pos, value in kwargs:
        if name not in keywords:
            if keywords:
                raise EvalError(f"{tok.text}() has no keyword argument '{name}'", tok.pos)
            raise EvalError(f"{tok.text}() takes no keyword arguments ('{name}')", tok.pos)
        if name in options:
            raise EvalError(f"duplicate keyword argument '{name}'", tok.pos)
        problem = keywords[name](name, value)
        if problem is not None:
            raise EvalError(problem, pos)
        options[name] = value
    try:
        if keywords is _SELECTOR:
            options = access.KeySelector._trusted(**options)  # names the lexer matched
        return run(env, args, options)
    except ExprError:
        raise
    except (AlgebraError, TypeError, ValueError) as exc:
        raise EvalError(str(exc), tok.pos) from exc


def run_program(src: str, env: Env) -> list:
    """Compile all of ``src``, then run its statements in order.

    Returns one result per statement (see :func:`parse_program`).  A
    syntax error anywhere in ``src`` runs none of it; an evaluation error
    stops the run, and the bindings made before it stay in ``env``.  Only
    :class:`ExprError` is raised, however deep the input is nested.
    """
    return [run(env) for run in parse_program(src)]

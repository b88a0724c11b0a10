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

The lexer is one compiled pattern, matched token after token.  Whitespace
is any character for which ``str.isspace()`` holds (``\\s`` in ``re``), and
names follow :data:`core.SYMBOL_RE`.  Numbers are exact rational literals
(``2``, ``3/2``).  They are not elements: the algebra has no unit, so
``2*a`` is scalar action while ``2 + a`` or ``a*2`` is an error.

Builtins: ``single``, ``double``, ``triple``, ``set_single``,
``set_double``, ``set_triple``, ``extract``, ``replace``, ``raaa``.
Keyword arguments name term-key columns (``s1``, ``d1``, ``d2``,
``t1``, ``t2``, ``t3``); their values are symbol names, never
variables.  ``replace(e, v, ...)`` takes the new coefficient as its
second positional argument, and ``set_*(e, 0)`` clears a degree.
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
    Coefficient,
    DEFAULT_CONTEXT,
    add,
    as_coeff,
    from_symbols,
    mul,
    neg,
    scalar_mul,
    sub,
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
    value: Optional[Coefficient] = None


_KEYWORDS = frozenset({"sym", "let"})
# m.lastindex names the token class.  The last group takes any other non-space
# character, so finditer never skips one: each is a token or an error.
_TOKEN_RE = re.compile(rf"\s*(?:([-+*()=,;])|({SYMBOL_RE.pattern})|([0-9]+(?:/[0-9]+)?)|(\S))")
_PUNCT, _NAME, _NUMBER = 1, 2, 3


def tokenize(src: str) -> list[Token]:
    """Split source into tokens with 1-based positions; ends with 'end'."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(src):
        group = m.lastindex
        text = m.group(group)
        pos = m.start(group) + 1
        if group == _PUNCT:
            tokens.append(Token(text, text, pos))
        elif group == _NAME:
            tokens.append(Token(text if text in _KEYWORDS else "name", text, pos))
        elif group == _NUMBER:
            num, slash, den = text.partition("/")
            try:
                value = as_coeff(Fraction(int(num), int(den))) if slash else int(num)
            except ZeroDivisionError:
                raise LexError("zero denominator in rational literal", pos) from None
            except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise LexError(f"number longer than {limit} digits", pos) from None
            tokens.append(Token("number", text, pos, value))
        else:
            raise LexError(f"illegal character {text!r}", pos)
    tokens.append(Token("end", "", len(src) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Compilation.  An expression compiles to ``(pos, run)``: ``run(env)`` gives
# its value, and errors about that value point at column ``pos``.  Closures
# look up ``add``, ``mul``, ``access`` etc. as module globals when they run.

class _Call(NamedTuple):
    """A builtin call; the builtin evaluates its own arguments."""

    name: str
    pos: int
    args: tuple  # compiled positional arguments, (pos, run) each
    kwargs: tuple  # (name, pos, value); value is a number or a tuple of symbol names


class _Parser:
    def __init__(self, tokens: list[Token]):
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

    def expr(self) -> tuple[int, Callable]:
        first = self.term()
        if self.tok.kind not in ("+", "-"):
            return first
        rest = []
        while self.tok.kind in ("+", "-"):
            op = self.advance()
            rest.append((op.kind == "+", *self.term()))
        return op.pos, _linear(first, rest)

    def term(self) -> tuple[int, Callable]:
        first = self.unary()
        if self.tok.kind != "*":
            return first
        rest = []
        while self.tok.kind == "*":
            op = self.advance()
            rest.append((op.pos, *self.unary()))
        return op.pos, _product(first[1], rest)

    def unary(self) -> tuple[int, Callable]:
        # '-'* atom: a loop, then the atom in this frame, so nesting costs few frames.
        minus = self.tok
        odd = False
        while self.tok.kind == "-":
            self.advance()
            odd = not odd
        tok = self.tok
        if tok.kind == "number":
            self.advance()
            value = tok.value
            node = tok.pos, lambda env: value
        elif tok.kind == "name":
            self.advance()
            if self.tok.kind == "(":
                call = _Call(tok.text, tok.pos, *self.nested(self.call_args))
                node = tok.pos, lambda env: _call(call, env)
            else:
                node = tok.pos, _variable(tok.text, tok.pos)
        else:
            node = self.nested(self.expr)
        if minus is tok:
            return node
        return minus.pos, _negation(node[1]) if odd else node[1]

    def nested(self, read: Callable):
        """Read '(', ``read()`` one level deeper and ')'; nothing else starts an atom."""
        tok = self.expect("(", "an expression")
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", tok.pos)
        self.depth += 1
        inner = read()
        self.expect(")")
        self.depth -= 1
        return inner

    def call_args(self) -> tuple[tuple, tuple]:
        args: list[tuple[int, Callable]] = []
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
                args.append(self.expr())
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
            names = [self.expect("name", "a symbol name").text]
            while self.tok.kind == ",":
                self.advance()
                names.append(self.expect("name", "a symbol name").text)
            self.expect(")")
            return tok.pos, tuple(names)
        raise ExprSyntaxError(
            "expected a number, a symbol name or a parenthesized symbol list", tok.pos
        )


_NOT_ELEMENT = "a bare number cannot be used as an element (the algebra has no unit)"

# The operator closures test each operand with isinstance inline, not through
# _element: one more call per operand costs the REPL measurably.

def _element(expr: tuple[int, Callable]) -> Callable:
    """Compile an expression whose value must be an element."""
    pos, value_of = expr

    def run(env):
        value = value_of(env)
        if not isinstance(value, AaaElement):
            raise ScalarOperandError(_NOT_ELEMENT, pos)
        return value

    return run


def _variable(name: str, pos: int) -> Callable:
    def run(env):
        try:
            return env.bindings[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable '{name}'", pos) from None

    return run


def _negation(value_of: Callable) -> Callable:
    def run(env):
        value = value_of(env)
        return neg(value) if isinstance(value, AaaElement) else -value

    return run


def _linear(first: tuple[int, Callable], rest: list[tuple[bool, int, Callable]]) -> Callable:
    """Sum a chain left to right; ``rest`` holds (is '+', pos, run) per operand."""
    fpos, frun = first

    def run(env):
        x = frun(env)
        if not isinstance(x, AaaElement):
            raise ScalarOperandError(_NOT_ELEMENT, fpos)
        for plus, pos, value_of in rest:
            y = value_of(env)
            if not isinstance(y, AaaElement):
                raise ScalarOperandError(_NOT_ELEMENT, pos)
            x = add(x, y) if plus else sub(x, y)
        return x

    return run


def _product(first: Callable, rest: list[tuple[int, int, Callable]]) -> Callable:
    """Element times element is ``mul``; a number as the left factor scales.

    ``rest`` holds (column of '*', column of the factor, run) per factor.
    """

    def run(env):
        x = first(env)
        for star, pos, value_of in rest:
            y = value_of(env)
            if not isinstance(y, AaaElement):
                raise ScalarOperandError("a number may only appear as the left factor of '*'", pos)
            if not isinstance(x, AaaElement):
                x = scalar_mul(x, y)
                continue
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
    return _Parser(tokenize(src)).parse_program()


# ---------------------------------------------------------------------------
# Evaluation

class Env:
    """Mutable interpreter session: context, bindings, seed stream for raaa()."""

    def __init__(self, context: AlgebraContext = DEFAULT_CONTEXT, seed: int = 0) -> None:
        self.context = context
        self.bindings: dict[str, AaaElement] = {}
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        self.seed = seed
        self._seed_stream = SplitMix64(seed)

    def next_seed(self) -> int:
        """Seed for the next raaa() call that has no explicit seed."""
        return self._seed_stream.next_u64()


def _arity(call: _Call, count: int) -> None:
    if len(call.args) != count:
        raise EvalError(
            f"{call.name}() takes {count} positional argument(s), got {len(call.args)}",
            call.pos,
        )


def _eval_degree(call: _Call, env: Env, fn, arity: int) -> AaaElement:
    _arity(call, arity)
    if call.kwargs:
        name = call.kwargs[0][0]
        raise EvalError(f"{call.name}() takes no keyword arguments ('{name}')", call.pos)
    return fn(_element(call.args[0])(env), *(value_of(env) for _, value_of in call.args[1:]))


def _selector(call: _Call) -> access.KeySelector:
    groups: dict[str, tuple[str, ...]] = {}
    for name, pos, value in call.kwargs:
        if name not in access.KeySelector.__slots__:
            raise EvalError(f"{call.name}() has no keyword argument '{name}'", call.pos)
        if name in groups:
            raise EvalError(f"duplicate keyword argument '{name}'", call.pos)
        if not isinstance(value, tuple):
            raise EvalError(f"'{name}' takes symbol names, not a number", pos)
        groups[name] = value
    return access.KeySelector(**groups)


def _eval_extract(call: _Call, env: Env) -> AaaElement:
    _arity(call, 1)
    return access.extract(_element(call.args[0])(env), _selector(call))


def _eval_replace(call: _Call, env: Env) -> AaaElement:
    _arity(call, 2)
    _, value_of = call.args[1]
    value = value_of(env)  # the value runs before the element it goes into
    return access.replace(_element(call.args[0])(env), _selector(call), value)


# Per degree, so that no line runs without limit; rng.raaa itself is not capped.
MAX_RAAA_TERMS = 100_000
# Term products per '*', so that no line runs without limit; core.mul itself is
# not capped.  2e6 products of distinct singles took about 1.2 s and 200 MB
# (CPython 3.11, shared 2-CPU machine); eval_large's largest forms 129,600.
MAX_PRODUCT_TERMS = 2_000_000
# Levels of '(', grouping or a call's: the deepest input parses and runs within
# the default recursion limit even when called from 400 frames deep.
MAX_NESTING = 100


def _eval_raaa(call: _Call, env: Env) -> AaaElement:
    if len(call.args) > 1:
        raise EvalError("raaa() takes at most one positional argument (the seed)", call.pos)
    if call.args:
        pos, value_of = call.args[0]
        seed = value_of(env)
        if not isinstance(seed, int):
            raise EvalError("raaa() seed must be an integer", pos)
    opts: dict = {}
    for name, pos, value in call.kwargs:
        if name == "alphabet":
            if not isinstance(value, tuple):
                raise EvalError("'alphabet' takes symbol names", pos)
        elif name in ("n1", "n2", "n3"):
            if not isinstance(value, int):  # a literal, so never negative
                raise EvalError(f"'{name}' must be an integer >= 0", pos)
            if value > MAX_RAAA_TERMS:
                raise EvalError(f"'{name}' must be at most {MAX_RAAA_TERMS}", pos)
        else:
            raise EvalError(f"raaa() has no keyword argument '{name}'", call.pos)
        opts[name] = value
    if not call.args:
        seed = env.next_seed()  # only now, so that a failed call takes no seed
    return raaa(seed, **opts)


_BUILTINS = {
    "single": lambda call, env: _eval_degree(call, env, access.single, 1),
    "double": lambda call, env: _eval_degree(call, env, access.double, 1),
    "triple": lambda call, env: _eval_degree(call, env, access.triple, 1),
    "set_single": lambda call, env: _eval_degree(call, env, access.set_single, 2),
    "set_double": lambda call, env: _eval_degree(call, env, access.set_double, 2),
    "set_triple": lambda call, env: _eval_degree(call, env, access.set_triple, 2),
    "extract": _eval_extract,
    "replace": _eval_replace,
    "raaa": _eval_raaa,
}


def _call(call: _Call, env: Env) -> AaaElement:
    """Run a builtin; unknown names, arity and kwargs are run-time errors."""
    handler = _BUILTINS.get(call.name)
    if handler is None:
        raise EvalError(f"unknown function '{call.name}'", call.pos)
    try:
        return handler(call, env)
    except ExprError:
        raise
    except (AlgebraError, TypeError, ValueError) as exc:
        raise EvalError(str(exc), call.pos) from exc


def run_program(src: str, env: Env) -> list:
    """Compile all of ``src``, then run its statements in order.

    Returns one result per statement (see :func:`parse_program`).  A
    syntax error anywhere in ``src`` runs none of it; an evaluation error
    stops the run, and the bindings made before it stay in ``env``.  Only
    :class:`ExprError` is raised, however deep the input is nested.
    """
    return [run(env) for run in parse_program(src)]

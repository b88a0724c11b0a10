"""Statement language over algebra elements: lexer, parser, evaluator.

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
    unary   := '-' unary | atom
    atom    := NUMBER | NAME | NAME '(' args ')' | '(' expr ')'
    args    := arg (',' arg)* | nothing
    arg     := NAME '=' kwvalue | expr
    kwvalue := NUMBER | NAME | '(' NAME (',' NAME)* ')'

Numbers are exact rational literals (``2``, ``3/2``).  They are not
elements: the algebra has no unit, so ``2*a`` is scalar action while
``2 + a`` or ``a*2`` is an error.

Builtins: ``single``, ``double``, ``triple``, ``set_single``,
``set_double``, ``set_triple``, ``extract``, ``replace``, ``raaa``.
Keyword arguments name term-key columns (``s1``, ``d1``, ``d2``,
``t1``, ``t2``, ``t3``); their values are symbol names, never
variables.  ``replace(e, v, ...)`` takes the new coefficient as its
second positional argument, and ``set_*(e, 0)`` clears a degree.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

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
    "tokenize",
    "parse_program",
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

@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'number', 'sym', 'let', one of '+-*()=,;', or 'end'
    text: str
    pos: int
    value: Optional[Coefficient] = None


_KEYWORDS = frozenset({"sym", "let"})
_NUMBER_RE = re.compile(r"[0-9]+(?:/[0-9]+)?")
_PUNCT = "+-*()=,;"


def tokenize(src: str) -> list[Token]:
    """Split source into tokens with 1-based positions; ends with 'end'."""
    tokens: list[Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, pos))
            i += 1
            continue
        m = SYMBOL_RE.match(src, i)
        if m:
            text = m.group()
            kind = text if text in _KEYWORDS else "name"
            tokens.append(Token(kind, text, pos))
            i = m.end()
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            text = m.group()
            num, slash, den = text.partition("/")
            try:
                value = as_coeff(Fraction(int(num), int(den))) if slash else int(num)
            except ZeroDivisionError:
                raise LexError("zero denominator in rational literal", pos) from None
            except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise LexError(f"number longer than {limit} digits", pos) from None
            tokens.append(Token("number", text, pos, value))
            i = m.end()
            continue
        raise LexError(f"illegal character {ch!r}", pos)
    tokens.append(Token("end", "", len(src) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Syntax trees

@dataclass(frozen=True)
class NumberLit:
    value: Coefficient
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SymbolList:
    """A keyword-argument value: literal symbol names, not expressions."""

    names: tuple[str, ...]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...] = ()
    kwargs: tuple[tuple[str, Union[SymbolList, NumberLit]], ...] = ()
    pos: int = field(default=0, compare=False)


Expr = Union[NumberLit, Var, Neg, Add, Sub, Mul, Call]


@dataclass(frozen=True)
class SymDecl:
    names: tuple[str, ...]
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class LetStmt:
    name: str
    expr: Expr
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ExprStmt:
    expr: Expr
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class EqualityStmt:
    left: Expr
    right: Expr
    pos: int = field(default=0, compare=False)


Statement = Union[SymDecl, LetStmt, ExprStmt, EqualityStmt]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or f"'{kind}'"
            found = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ExprSyntaxError(f"expected {wanted}, found {found}", tok.pos)
        return self.advance()

    def parse_program(self) -> list[Statement]:
        stmts: list[Statement] = []
        while True:
            while self.peek().kind == ";":
                self.advance()
            if self.peek().kind == "end":
                return stmts
            stmts.append(self.statement())
            tok = self.peek()
            if tok.kind == ";":
                self.advance()
            elif tok.kind != "end":
                raise ExprSyntaxError(
                    f"expected ';' or end of statement, found {tok.text!r}", tok.pos
                )

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "sym":
            self.advance()
            names = []
            while self.peek().kind == "name":
                names.append(self.advance().text)
            if not names:
                raise ExprSyntaxError(
                    "expected at least one symbol name after 'sym'", self.peek().pos
                )
            return SymDecl(tuple(names), tok.pos)
        if tok.kind == "let":
            self.advance()
            name = self.expect("name", "a name to bind").text
            self.expect("=")
            return LetStmt(name, self.expr(), tok.pos)
        left = self.expr()
        if self.peek().kind == "=":
            eq = self.advance()
            return EqualityStmt(left, self.expr(), eq.pos)
        return ExprStmt(left, tok.pos)

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term()
            cls = Add if op.kind == "+" else Sub
            node = cls(node, right, op.pos)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "*":
            op = self.advance()
            node = Mul(node, self.unary(), op.pos)
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary(), tok.pos)
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return NumberLit(tok.value, tok.pos)
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args, kwargs = self.call_args()
                self.expect(")")
                return Call(tok.text, args, kwargs, tok.pos)
            return Var(tok.text, tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExprSyntaxError(f"expected an expression, found {found}", tok.pos)

    def call_args(self):
        args: list[Expr] = []
        kwargs: list[tuple[str, Union[SymbolList, NumberLit]]] = []
        if self.peek().kind == ")":
            return tuple(args), tuple(kwargs)
        while True:
            if self.peek().kind == "name" and self.peek(1).kind == "=":
                name = self.advance().text
                self.advance()
                kwargs.append((name, self.kwvalue()))
            else:
                if kwargs:
                    raise ExprSyntaxError(
                        "positional argument after keyword argument", self.peek().pos
                    )
                args.append(self.expr())
            if self.peek().kind != ",":
                return tuple(args), tuple(kwargs)
            self.advance()

    def kwvalue(self) -> Union[SymbolList, NumberLit]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return NumberLit(tok.value, tok.pos)
        if tok.kind == "name":
            self.advance()
            return SymbolList((tok.text,), tok.pos)
        if tok.kind == "(":
            self.advance()
            names = [self.expect("name", "a symbol name").text]
            while self.peek().kind == ",":
                self.advance()
                names.append(self.expect("name", "a symbol name").text)
            self.expect(")")
            return SymbolList(tuple(names), tok.pos)
        raise ExprSyntaxError(
            "expected a number, a symbol name or a parenthesized symbol list", tok.pos
        )


def parse_expr(tokens: list[Token]) -> Expr:
    """Parse a token list as a single expression; all tokens must be used."""
    parser = _Parser(tokens)
    node = parser.expr()
    parser.expect("end", "end of input")
    return node


def parse_program(src: str) -> list[Statement]:
    """Tokenize and parse a sequence of ';'-separated statements."""
    return _Parser(tokenize(src)).parse_program()


# ---------------------------------------------------------------------------
# Evaluation

@dataclass
class Env:
    """Mutable interpreter session: context, bindings, seed stream for raaa()."""

    context: AlgebraContext = DEFAULT_CONTEXT
    bindings: dict[str, AaaElement] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        self._seed_stream = SplitMix64(self.seed)

    def reseed(self, seed: int) -> None:
        self.seed = seed
        self._seed_stream = SplitMix64(seed)

    def next_seed(self) -> int:
        """Seed for the next raaa() call that has no explicit seed."""
        return self._seed_stream.next_u64()


Value = Union[AaaElement, Coefficient]


def _is_scalar(value: Value) -> bool:
    return isinstance(value, (int, Fraction))


def _require_element(value: Value, pos: int) -> AaaElement:
    if _is_scalar(value):
        raise ScalarOperandError(
            "a bare number cannot be used as an element (the algebra has no unit)",
            pos,
        )
    return value


def eval_expr(node: Expr, env: Env) -> Value:
    """Evaluate an expression to an element, or to an exact scalar.

    Scalars may only be consumed as the left factor of ``*`` or by a
    builtin that takes a number; anywhere else they raise
    :class:`ScalarOperandError`.
    """
    if isinstance(node, NumberLit):
        return node.value
    if isinstance(node, Var):
        try:
            return env.bindings[node.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable '{node.name}'", node.pos) from None
    if isinstance(node, Neg):
        value = eval_expr(node.operand, env)
        return -value if _is_scalar(value) else neg(value)
    if isinstance(node, Add):
        left = _require_element(eval_expr(node.left, env), node.left.pos)
        right = _require_element(eval_expr(node.right, env), node.right.pos)
        return add(left, right)
    if isinstance(node, Sub):
        left = _require_element(eval_expr(node.left, env), node.left.pos)
        right = _require_element(eval_expr(node.right, env), node.right.pos)
        return sub(left, right)
    if isinstance(node, Mul):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        if _is_scalar(right):
            raise ScalarOperandError(
                "a number may only appear as the left factor of '*'", node.right.pos
            )
        if _is_scalar(left):
            return scalar_mul(left, right)
        return mul(env.context, left, right)
    if isinstance(node, Call):
        return _eval_call(node, env)
    raise EvalError(f"cannot evaluate node {node!r}", getattr(node, "pos", 0))


def _arity(node: Call, count: int) -> None:
    if len(node.args) != count:
        raise EvalError(
            f"{node.func}() takes {count} positional argument(s), got {len(node.args)}",
            node.pos,
        )


def _element_arg(node: Call, env: Env, index: int) -> AaaElement:
    arg = node.args[index]
    return _require_element(eval_expr(arg, env), arg.pos)


def _eval_degree(node: Call, env: Env, fn, arity: int) -> AaaElement:
    _arity(node, arity)
    if node.kwargs:
        name = node.kwargs[0][0]
        raise EvalError(f"{node.func}() takes no keyword arguments ('{name}')", node.pos)
    target = _element_arg(node, env, 0)
    return fn(target, *(eval_expr(arg, env) for arg in node.args[1:]))


_SELECTOR_GROUPS = ("s1", "d1", "d2", "t1", "t2", "t3")


def _selector(node: Call) -> access.KeySelector:
    groups: dict[str, tuple[str, ...]] = {}
    for name, value in node.kwargs:
        if name not in _SELECTOR_GROUPS:
            raise EvalError(f"{node.func}() has no keyword argument '{name}'", node.pos)
        if name in groups:
            raise EvalError(f"duplicate keyword argument '{name}'", node.pos)
        if not isinstance(value, SymbolList):
            raise EvalError(
                f"'{name}' takes symbol names, not a number", value.pos
            )
        groups[name] = value.names
    return access.KeySelector(**groups)


def _eval_extract(node: Call, env: Env) -> AaaElement:
    _arity(node, 1)
    return access.extract(_element_arg(node, env, 0), _selector(node))


def _eval_replace(node: Call, env: Env) -> AaaElement:
    _arity(node, 2)
    value = eval_expr(node.args[1], env)
    if not _is_scalar(value):
        raise EvalError("replace() value must be a number", node.args[1].pos)
    return access.replace(_element_arg(node, env, 0), _selector(node), value)


def _int_kwarg(name: str, value) -> int:
    if not isinstance(value, NumberLit) or not isinstance(value.value, int) or value.value < 0:
        raise EvalError(f"'{name}' must be an integer >= 0", value.pos)
    return value.value


def _eval_raaa(node: Call, env: Env) -> AaaElement:
    if len(node.args) > 1:
        raise EvalError("raaa() takes at most one positional argument (the seed)", node.pos)
    if node.args:
        seed_value = eval_expr(node.args[0], env)
        if not isinstance(seed_value, int):
            raise EvalError("raaa() seed must be an integer", node.args[0].pos)
        seed = seed_value
    else:
        seed = env.next_seed()
    opts: dict = {}
    for name, value in node.kwargs:
        if name == "alphabet":
            if not isinstance(value, SymbolList):
                raise EvalError("'alphabet' takes symbol names", value.pos)
            opts["alphabet"] = value.names
        elif name in ("n1", "n2", "n3"):
            opts[name] = _int_kwarg(name, value)
        else:
            raise EvalError(f"raaa() has no keyword argument '{name}'", node.pos)
    return raaa(seed, **opts)


_BUILTINS = {
    "single": lambda node, env: _eval_degree(node, env, access.single, 1),
    "double": lambda node, env: _eval_degree(node, env, access.double, 1),
    "triple": lambda node, env: _eval_degree(node, env, access.triple, 1),
    "set_single": lambda node, env: _eval_degree(node, env, access.set_single, 2),
    "set_double": lambda node, env: _eval_degree(node, env, access.set_double, 2),
    "set_triple": lambda node, env: _eval_degree(node, env, access.set_triple, 2),
    "extract": _eval_extract,
    "replace": _eval_replace,
    "raaa": _eval_raaa,
}


def _eval_call(node: Call, env: Env) -> AaaElement:
    handler = _BUILTINS.get(node.func)
    if handler is None:
        raise EvalError(f"unknown function '{node.func}'", node.pos)
    try:
        return handler(node, env)
    except ExprError:
        raise
    except (AlgebraError, TypeError, ValueError) as exc:
        raise EvalError(str(exc), node.pos) from exc


def exec_statement(stmt: Statement, env: Env):
    """Execute one statement.

    Returns None for bindings, an element for expression statements and
    a bool for equality queries.
    """
    if isinstance(stmt, SymDecl):
        for name in stmt.names:
            env.bindings[name] = from_symbols([name])
        return None
    if isinstance(stmt, LetStmt):
        value = eval_expr(stmt.expr, env)
        env.bindings[stmt.name] = _require_element(value, stmt.expr.pos)
        return None
    if isinstance(stmt, ExprStmt):
        return _require_element(eval_expr(stmt.expr, env), stmt.expr.pos)
    if isinstance(stmt, EqualityStmt):
        left = _require_element(eval_expr(stmt.left, env), stmt.left.pos)
        right = _require_element(eval_expr(stmt.right, env), stmt.right.pos)
        return left == right
    raise EvalError(f"cannot execute statement {stmt!r}", getattr(stmt, "pos", 0))


def run_program(src: str, env: Env) -> list:
    """Parse and execute ``src``; one result per statement, in order."""
    return [exec_statement(stmt, env) for stmt in parse_program(src)]

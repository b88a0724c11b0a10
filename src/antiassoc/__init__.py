"""Exact arithmetic in the free antiassociative algebra.

Quick start::

    from antiassoc import from_symbols, serialize

    a, b, c = (from_symbols([s]) for s in "abc")
    serialize(a * (b * c))      # '-1(a.b)c'
    serialize(a * b * c * d)    # would be '0': degree-4 products vanish

The ``*`` operator uses the default antiassociative context (K = -1);
use :func:`mul` with an :class:`AlgebraContext` for other values of K.
"""

from .access import (
    DegreeMismatchError,
    KeySelector,
    RaggedMatrixError,
    d1,
    d2,
    dc,
    double,
    extract,
    extract_matrix,
    replace,
    replace_matrix,
    s1,
    sc,
    set_double,
    set_single,
    set_triple,
    single,
    t1,
    t2,
    t3,
    tc,
    triple,
)
from .core import (
    AaaElement,
    AlgebraContext,
    AlgebraError,
    Coefficient,
    DEFAULT_CONTEXT,
    InvalidSymbolError,
    LengthMismatchError,
    TermKey,
    add,
    as_coeff,
    check_symbol,
    from_symbols,
    make_element,
    mul,
    neg,
    scalar_mul,
    sub,
    zero,
)
from .exprlang import (
    Env,
    EvalError,
    ExprError,
    ExprSyntaxError,
    LexError,
    ScalarOperandError,
    UnboundVariableError,
    run_program,
)
from .rng import EmptyAlphabetError, raaa
from .textio import ParseError, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AaaElement",
    "AlgebraContext",
    "AlgebraError",
    "Coefficient",
    "DEFAULT_CONTEXT",
    "DegreeMismatchError",
    "EmptyAlphabetError",
    "Env",
    "EvalError",
    "ExprError",
    "ExprSyntaxError",
    "InvalidSymbolError",
    "KeySelector",
    "LengthMismatchError",
    "LexError",
    "ParseError",
    "RaggedMatrixError",
    "ScalarOperandError",
    "TermKey",
    "UnboundVariableError",
    "add",
    "as_coeff",
    "check_symbol",
    "d1",
    "d2",
    "dc",
    "double",
    "extract",
    "extract_matrix",
    "from_symbols",
    "make_element",
    "mul",
    "neg",
    "parse",
    "raaa",
    "replace",
    "replace_matrix",
    "run_program",
    "s1",
    "sc",
    "scalar_mul",
    "serialize",
    "set_double",
    "set_single",
    "set_triple",
    "single",
    "sub",
    "t1",
    "t2",
    "t3",
    "tc",
    "triple",
    "zero",
]

"""Exact arithmetic in the free antiassociative algebra.

Quick start::

    from antiassoc import from_symbols, serialize

    a, b, c = (from_symbols([s]) for s in "abc")
    serialize(a * (b * c))      # '-1(a.b)c'
    serialize(a * b * c * d)    # would be '0': degree-4 products vanish

The ``*`` operator uses the default antiassociative context (K = -1);
use :func:`mul` with an :class:`AlgebraContext` for other values of K.
"""

from types import ModuleType as _ModuleType

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

# Every name imported above, less the submodules that importing them binds.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

"""Exact arithmetic in the free antiassociative algebra.

Quick start::

    from antiassoc import from_symbols, serialize

    a, b, c = (from_symbols([s]) for s in "abc")
    serialize(a * (b * c))      # '-1(a.b)c'
    serialize(a * b * c * d)    # would be '0': degree-4 products vanish

The ``*`` operator uses the default antiassociative context (K = -1);
use :func:`mul` with an :class:`AlgebraContext` for other values of K.
"""

from . import access, core, exprlang, rng, textio
from .access import *
from .core import *
from .exprlang import *
from .rng import *
from .textio import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of what it exports.
__all__ = []
__all__ += access.__all__
__all__ += core.__all__
__all__ += exprlang.__all__
__all__ += rng.__all__
__all__ += textio.__all__

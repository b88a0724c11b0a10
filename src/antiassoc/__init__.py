"""Exact arithmetic in the free antiassociative algebra.

Quick start::

    from antiassoc import from_symbols, serialize

    a, b, c, d = (from_symbols([s]) for s in "abcd")
    serialize(a * (b * c))      # '-1(a.b)c'
    serialize(a * b * c * d)    # '0'

The ``*`` operator uses the default antiassociative context (K = -1);
use :func:`mul` with an :class:`AlgebraContext` for other values of K.
"""

__version__ = "0.1.0"

_MODULES = ("access", "core", "exprlang", "rng", "textio")


def __getattr__(name: str):
    """Bind every module's public names here on the first lookup (PEP 562), so that
    importing the package loads no module.  A module's own name loads that module
    alone, as ``exprlang``'s ``from . import access`` asks while ``exprlang`` loads."""
    namespace = globals()
    if name in _MODULES:
        __import__(f"{__name__}.{name}")  # binds it here; unlike importlib, seen by -X importtime
        return namespace[name]
    if "__all__" not in namespace:  # each module's __all__ is the one list of what it exports
        exports = {n: module for module in map(__getattr__, _MODULES) for n in module.__all__}
        namespace.update((n, getattr(module, n)) for n, module in exports.items())
        namespace["__all__"] = list(exports)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    __getattr__("__all__")
    return sorted(globals())

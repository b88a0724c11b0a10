"""Component extraction and replacement.

Three access styles:

* whole-degree split: :func:`single`, :func:`double`, :func:`triple`
  and their ``set_`` counterparts;
* keyed selection through a :class:`KeySelector`, which names term keys
  by parallel symbol columns (``s1`` for degree 1, ``d1/d2`` for degree
  2, ``t1/t2/t3`` for degree 3);
* rowwise matrix selection, where each row of a uniform-width matrix of
  symbols is one term key.

Column views (:func:`s1` .. :func:`tc`) return parallel lists in
canonical term order, so the i-th entries across columns always
describe the same term.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    AaaElement,
    AlgebraError,
    Coefficient,
    LengthMismatchError,
    TermKey,
    _Value,
    _check_symbols,
    as_coeff,
)

__all__ = [
    "DegreeMismatchError",
    "RaggedMatrixError",
    "KeySelector",
    "single",
    "double",
    "triple",
    "set_single",
    "set_double",
    "set_triple",
    "extract",
    "replace",
    "extract_matrix",
    "replace_matrix",
    "s1",
    "sc",
    "d1",
    "d2",
    "dc",
    "t1",
    "t2",
    "t3",
    "tc",
]


class DegreeMismatchError(AlgebraError):
    """A replacement element contains terms of the wrong degree."""


class RaggedMatrixError(AlgebraError):
    """Matrix rows do not form term keys of one uniform width."""


class KeySelector(_Value):
    """A set of term keys named by parallel symbol columns.

    ``s1`` lists degree-1 keys; ``(d1, d2)`` and ``(t1, t2, t3)`` list
    degree-2 and degree-3 keys columnwise.  Columns within a group must
    have equal lengths; any group may be empty.
    """

    __slots__ = ("s1", "d1", "d2", "t1", "t2", "t3")

    def __new__(
        cls,
        s1: Sequence[str] = (),
        d1: Sequence[str] = (),
        d2: Sequence[str] = (),
        t1: Sequence[str] = (),
        t2: Sequence[str] = (),
        t3: Sequence[str] = (),
    ) -> KeySelector:
        """The checked constructor: every name through ``check_symbol``."""
        return cls._trusted(*(tuple(_check_symbols(c)) for c in (s1, d1, d2, t1, t2, t3)))

    @classmethod
    def _trusted(cls, s1=(), d1=(), d2=(), t1=(), t2=(), t3=()) -> KeySelector:
        """A selector over tuples of checked names; the one check of column lengths."""
        if len(d1) != len(d2):
            raise LengthMismatchError("d1 and d2 must have equal lengths")
        if not (len(t1) == len(t2) == len(t3)):
            raise LengthMismatchError("t1, t2 and t3 must have equal lengths")
        selector = object.__new__(cls)
        for name, col in zip(cls.__slots__, (s1, d1, d2, t1, t2, t3)):
            object.__setattr__(selector, name, col)
        return selector

    def keys(self) -> list[TermKey]:
        """The selected keys, degree-1 group first.  May contain repeats."""
        out: list[TermKey] = [(s,) for s in self.s1]
        out.extend(zip(self.d1, self.d2))
        out.extend(zip(self.t1, self.t2, self.t3))
        return out


def single(element: AaaElement) -> AaaElement:
    """The degree-1 part of the element."""
    return AaaElement._trusted(element.singles, {}, {})


def double(element: AaaElement) -> AaaElement:
    """The degree-2 part of the element."""
    return AaaElement._trusted({}, element.doubles, {})


def triple(element: AaaElement) -> AaaElement:
    """The degree-3 part of the element."""
    return AaaElement._trusted({}, {}, element.triples)


def _set_degree(element: AaaElement, replacement: object, degree: int) -> AaaElement:
    i = degree - 1
    if isinstance(replacement, AaaElement):
        maps = replacement._values()
        if any(m for j, m in enumerate(maps) if j != i):
            raise DegreeMismatchError(
                f"replacement for {AaaElement.__slots__[i]} contains terms of another degree"
            )
        new_map = maps[i]
    elif as_coeff(replacement) == 0:  # refuses floats, bools and non-numbers
        new_map = {}
    else:
        raise TypeError("replacement must be an element or the literal 0")
    parts = list(element._values())
    parts[i] = new_map
    return AaaElement._trusted(*parts)


def set_single(element: AaaElement, replacement: object) -> AaaElement:
    """Replace the degree-1 part; ``0`` clears it.  Other degrees are kept."""
    return _set_degree(element, replacement, 1)


def set_double(element: AaaElement, replacement: object) -> AaaElement:
    """Replace the degree-2 part; ``0`` clears it.  Other degrees are kept."""
    return _set_degree(element, replacement, 2)


def set_triple(element: AaaElement, replacement: object) -> AaaElement:
    """Replace the degree-3 part; ``0`` clears it.  Other degrees are kept."""
    return _set_degree(element, replacement, 3)


def _extract_keys(element: AaaElement, keys: Sequence[TermKey]) -> AaaElement:
    maps = element._values()
    picked: tuple[dict, dict, dict] = ({}, {}, {})
    for key in keys:
        src = maps[len(key) - 1]
        if key in src:
            picked[len(key) - 1][key] = src[key]
    return AaaElement._trusted(*picked)


def _replace_keys(
    element: AaaElement, keys: Sequence[TermKey], value: Coefficient
) -> AaaElement:
    parts = [dict(m) for m in element._values()]
    for key in keys:
        target = parts[len(key) - 1]
        if value:
            target[key] = value
        else:
            target.pop(key, None)
    return AaaElement._trusted(*parts)


def extract(element: AaaElement, selector: KeySelector) -> AaaElement:
    """The sub-element on the selected keys; absent keys contribute nothing."""
    return _extract_keys(element, selector.keys())


def replace(element: AaaElement, selector: KeySelector, value: object) -> AaaElement:
    """Set every selected key's coefficient to ``value``.

    Absent keys are created; value 0 deletes.  A key named twice is set
    once (assignment, not accumulation).
    """
    return _replace_keys(element, selector.keys(), as_coeff(value))


def _matrix_keys(rows: Sequence[Sequence[str]]) -> list[TermKey]:
    keys = [tuple(_check_symbols(row)) for row in rows]
    widths = {len(k) for k in keys}
    if len(widths) > 1:
        raise RaggedMatrixError("matrix rows differ in width")
    if widths and not widths <= {1, 2, 3}:
        raise RaggedMatrixError("matrix rows must have width 1, 2 or 3")
    return keys


def extract_matrix(element: AaaElement, rows: Sequence[Sequence[str]]) -> AaaElement:
    """Rowwise extraction: each row of symbols is one term key."""
    return _extract_keys(element, _matrix_keys(rows))


def replace_matrix(
    element: AaaElement, rows: Sequence[Sequence[str]], value: object
) -> AaaElement:
    """Rowwise replacement: each row of symbols is one term key."""
    return _replace_keys(element, _matrix_keys(rows), as_coeff(value))


def _column(name: str, degree: int, index: Optional[int], doc: str):
    """A column view: of each degree-``degree`` term in canonical order, the symbol
    at ``index`` in its key, or its coefficient when ``index`` is None."""

    def view(element: AaaElement) -> list:
        terms = sorted(element._values()[degree - 1].items())
        return [c for _, c in terms] if index is None else [key[index] for key, _ in terms]

    view.__name__ = view.__qualname__ = name
    view.__doc__ = doc
    return view


s1 = _column("s1", 1, 0, "Degree-1 symbols, parallel to :func:`sc`.")
sc = _column("sc", 1, None, "Degree-1 coefficients, parallel to :func:`s1`.")
d1 = _column("d1", 2, 0, "First symbols of degree-2 terms.")
d2 = _column("d2", 2, 1, "Second symbols of degree-2 terms.")
dc = _column("dc", 2, None, "Degree-2 coefficients, parallel to :func:`d1` and :func:`d2`.")
t1 = _column("t1", 3, 0, "First symbols of degree-3 terms.")
t2 = _column("t2", 3, 1, "Second symbols of degree-3 terms.")
t3 = _column("t3", 3, 2, "Third symbols of degree-3 terms.")
tc = _column("tc", 3, None, "Degree-3 coefficients, parallel to the ``t`` columns.")

"""Exact arithmetic in the free antiassociative algebra.

An element is a finite sum of three kinds of terms over named
generators: single symbols ``a``, two-symbol products ``a.b``, and
left-bracketed three-symbol products ``(a.b)c``.  There is no constant
(degree-0) component, because the only scalar the vector space admits
is zero, and every product of total degree four or more vanishes, so
three sparse coefficient maps are a complete representation.

Coefficients are exact rationals: plain ints, or ``fractions.Fraction``
for non-integer values.  All operations are exact, so ``==`` between
elements is trustworthy.

Multiplication depends on the associativity constant K carried by an
:class:`AlgebraContext`; the triple-product rule is ``a(bc) = K*(ab)c``.
The default K = -1 makes the algebra antiassociative, K = 1 makes the
retained degree <= 3 part associative.  The ``*`` operator on elements
uses the default context; pass an explicit context to :func:`mul` for
any other K.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "AlgebraError",
    "InvalidSymbolError",
    "LengthMismatchError",
    "Coefficient",
    "TermKey",
    "AaaElement",
    "AlgebraContext",
    "DEFAULT_CONTEXT",
    "check_symbol",
    "as_coeff",
    "zero",
    "from_symbols",
    "make_element",
    "add",
    "neg",
    "sub",
    "scalar_mul",
    "mul",
]

Coefficient = Union[int, Fraction]
TermKey = tuple[str, ...]


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSymbolError(AlgebraError):
    """A symbol name violates the allowed character set."""


class LengthMismatchError(AlgebraError):
    """Parallel argument lists differ in length."""


# The one symbol grammar, shared by check_symbol, textio and exprlang.  A scan that must not stop
# inside a symbol looks ahead for a _SYMBOL_CHAR.
_SYMBOL_CHAR = "[A-Za-z_0-9]"
SYMBOL_RE = re.compile(f"[A-Za-z_]{_SYMBOL_CHAR}*")


def check_symbol(name: object) -> str:
    """Validate a generator name and return it.

    A symbol is an ASCII letter or underscore, then any ASCII letters,
    digits and underscores: a full match of :data:`SYMBOL_RE`.
    """
    if not isinstance(name, str) or not SYMBOL_RE.fullmatch(name):
        raise InvalidSymbolError(f"symbol name must match {SYMBOL_RE.pattern}: {name!r}")
    return name


def _check_symbols(names: Iterable[object]) -> Iterator[str]:
    """Each name through :func:`check_symbol`, lazily; a bare ``str`` is refused at once."""
    if isinstance(names, str):
        raise TypeError(f"expected a sequence of symbol names, not the string {names!r}")
    return map(check_symbol, names)


def _is_int(value: object) -> bool:
    """The one integer rule for arguments: an ``int``, and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Coefficients(dict):
    """The one reader of rational text its callers have matched; a miss converts the text."""

    def __missing__(self, c: str) -> Coefficient:
        num, _, den = c.partition("/")
        n, d = int(num), int(den or 1)  # ValueError over the digit limit, or for ""
        coeff = Fraction(n, d) if n % d else n // d  # an integral n/d is an int; "/0" raises
        if len(c) <= 20 and len(self) < 4096:  # 20 chars: far below any digit limit
            self[c] = coeff
        return coeff


_COEFFS = _Coefficients()
_RATIONAL = "[0-9]+(?:/[0-9]+)?"  # the one rule for rational text; each reader adds its sign


def as_coeff(value: object) -> Coefficient:
    """Coerce to an exact coefficient: an int, or a Fraction in lowest terms.

    Accepts ints, Fractions and rational text like ``"-3/2"``: a full match
    of ``[+-]?[0-9]+(?:/[0-9]+)?``.  Floats and bools are rejected:
    coefficients must be exact numbers.  The result is
    exactly an ``int`` or a ``Fraction``, never a subclass, so ``str()``
    prints it in canonical form.  Text is read by ``_COEFFS``, keyed by the text
    as written, with the rule and cap that ``textio.parse`` and the lexer share.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value.numerator)
        return value if type(value) is Fraction else Fraction(value.numerator, value.denominator)
    if _is_int(value):
        return int(value)
    if isinstance(value, str):
        try:
            if m := re.fullmatch(f"[+-]?{_RATIONAL}", value):
                return _COEFFS[m[0]]  # m[0] is a plain str, even for a str subclass
        except (ValueError, ZeroDivisionError):  # "n/0", or more digits than int() reads
            pass
        raise ValueError(f"not a rational literal: {value!r}")
    raise TypeError(
        "coefficients must be exact rationals "
        f"(int, Fraction or 'n/d' text), not {type(value).__name__}"
    )


class _Value:
    """Base for immutable values whose fields are their class's ``__slots__``.

    ``==`` (within one class), hash, the ``Name(field=value, ...)`` repr,
    copy and pickle all go by the fields; a copy passes the constructor's
    checks again.  Assigning to or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class AaaElement(_Value):
    """An element, held as three sparse maps from term key to coefficient.

    Keys are tuples of 1, 2 or 3 symbol names; a 3-tuple ``(i, j, k)``
    always denotes the left bracketing ``(i.j)k``.  The maps never store
    a zero coefficient, so map equality is element equality.  Elements
    are immutable, hashable values: every operation returns a new element,
    and the maps must be treated as read-only.
    """

    __slots__ = ("singles", "doubles", "triples")
    singles: dict[TermKey, Coefficient]
    doubles: dict[TermKey, Coefficient]
    triples: dict[TermKey, Coefficient]

    def __new__(cls, singles: Mapping, doubles: Mapping, triples: Mapping) -> AaaElement:
        """The checked constructor: check each term of maps from outside, then sum.

        A map may hold zero coefficients; they are checked, then dropped.
        """
        maps = {"singles": singles, "doubles": doubles, "triples": triples}
        return _build(
            _checked_term(name, degree, key, value)
            for degree, (name, m) in enumerate(maps.items(), 1)
            for key, value in m.items()
        )

    def _values(self) -> tuple:  # spelled out: the generic loop makes ``==`` 4x slower
        return self.singles, self.doubles, self.triples

    @classmethod
    def _trusted(cls, singles: dict, doubles: dict, triples: dict) -> AaaElement:
        """Wrap maps that already hold the invariants, without copy or check.

        The invariants are the ones the checked constructor establishes:
        keys are tuples of the map's degree over valid symbols, and every
        coefficient is a nonzero int or a Fraction whose denominator is
        not 1.  Every operation builds its result this way;
        ``AaaElement(...)`` is the checked constructor for maps from outside.
        """
        element = object.__new__(cls)
        object.__setattr__(element, "singles", singles)
        object.__setattr__(element, "doubles", doubles)
        object.__setattr__(element, "triples", triples)
        return element

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.singles.items()),
                frozenset(self.doubles.items()),
                frozenset(self.triples.items()),
            )
        )

    def terms(self) -> list[tuple[TermKey, Coefficient]]:
        """All (key, coefficient) pairs in canonical order.

        Canonical order is by degree, then lexicographically by symbol
        tuple within a degree; it is the order used by serialization.
        """
        out: list = []
        for m in (self.singles, self.doubles, self.triples):
            out.extend(sorted(m.items()))
        return out

    def __bool__(self) -> bool:
        return bool(self.singles or self.doubles or self.triples)

    def __add__(self, other: object) -> AaaElement:
        if not isinstance(other, AaaElement):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: object) -> AaaElement:
        if not isinstance(other, AaaElement):
            return NotImplemented
        return sub(self, other)

    def __neg__(self) -> AaaElement:
        return neg(self)

    def __mul__(self, other: object) -> AaaElement:
        if isinstance(other, AaaElement):
            return mul(DEFAULT_CONTEXT, self, other)
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        return NotImplemented

    def __rmul__(self, other: object) -> AaaElement:
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        return NotImplemented

    def __str__(self) -> str:
        from .textio import serialize

        return serialize(self)

    def __repr__(self) -> str:
        return f"<AaaElement {self}>"


class AlgebraContext(_Value):
    """Multiplication policy: the constant K in the rewrite a(bc) = K*(ab)c."""

    __slots__ = ("k",)
    k: Coefficient

    def __new__(cls, k: object = -1) -> AlgebraContext:
        context = object.__new__(cls)
        object.__setattr__(context, "k", as_coeff(k))
        return context


DEFAULT_CONTEXT = AlgebraContext()


def zero() -> AaaElement:
    """The additive identity: the element with no terms."""
    return AaaElement._trusted({}, {}, {})


def from_symbols(names: Iterable[str]) -> AaaElement:
    """Sum of the named generators, each with coefficient 1.

    Duplicate names accumulate, so ``["a", "a"]`` gives ``+2a``.
    """
    return _build(((name,), 1) for name in _check_symbols(names))


def make_element(
    s1: Sequence[str] = (),
    sc: Sequence = (),
    d1: Sequence[str] = (),
    d2: Sequence[str] = (),
    dc: Sequence = (),
    t1: Sequence[str] = (),
    t2: Sequence[str] = (),
    t3: Sequence[str] = (),
    tc: Sequence = (),
) -> AaaElement:
    """Build an element from parallel symbol and coefficient lists.

    ``(s1, sc)`` give the single-symbol terms, ``(d1, d2, dc)`` the
    two-symbol terms ``d1[i].d2[i]`` and ``(t1, t2, t3, tc)`` the
    three-symbol terms ``(t1[i].t2[i])t3[i]``.  Lists within a group
    must have equal lengths; any group may be empty.  Duplicate keys
    accumulate by addition and terms that sum to zero are dropped.
    """
    pairs: list = []
    for cols, coeffs, what in (
        ((s1,), sc, "s1/sc"),
        ((d1, d2), dc, "d1/d2/dc"),
        ((t1, t2, t3), tc, "t1/t2/t3/tc"),
    ):
        # a str is refused after the length check, like a column of symbols
        *cols, coeffs = [c if isinstance(c, str) else list(c) for c in (*cols, coeffs)]
        if any(len(c) != len(coeffs) for c in cols):
            raise LengthMismatchError(f"parallel lists {what} must have equal lengths")
        if isinstance(coeffs, str):
            raise TypeError(f"expected a sequence of coefficients, not the string {coeffs!r}")
        pairs += zip(zip(*map(_check_symbols, cols)), map(as_coeff, coeffs))
    return _build(pairs)


def _checked_term(name: str, degree: int, key: object, value: object) -> tuple:
    """A checked ``(key, coefficient)`` pair from the ``name`` map given to ``AaaElement``."""
    _check_symbols(key)  # refuses a bare str; each name is checked after the degree
    key = tuple(key)
    if len(key) != degree:
        raise LengthMismatchError(f"{name} key {key!r} does not have degree {degree}")
    return tuple(map(check_symbol, key)), as_coeff(value)


def _build(pairs: Iterable[tuple[TermKey, Coefficient]]) -> AaaElement:
    """Sum checked, normalized ``(key, coefficient)`` pairs into an element.

    A key's first coefficient is stored as is; only a sum is normalized.
    """
    maps: tuple[dict, dict, dict] = ({}, {}, {})
    for key, coeff in pairs:
        m = maps[len(key) - 1]
        if key in m:
            coeff = m[key] + coeff
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
        if coeff:
            m[key] = coeff
        else:
            m.pop(key, None)
    return AaaElement._trusted(*maps)


def _ints(m: dict) -> None:
    """Turn the integral Fractions in ``m`` into ints, in place."""
    for key, c in m.items():
        if type(c) is not int and c.denominator == 1:
            m[key] = c.numerator


def _sum(terms: Iterable[tuple[Coefficient, AaaElement]]) -> AaaElement:
    """The sum of ``scale * element`` over the ``(scale, element)`` pairs of ``terms``,
    of which there is at least one: the one routine that scales or adds elements.

    The first element's maps are copied once (at C speed when its scale is 1,
    by one comprehension each when not), and every later term is merged into
    the copies, so the time is linear in the terms.  A scale of 0 merges
    nothing.  Integral Fractions become ints, and zeros are dropped.
    """
    maps = None
    for scale, e in terms:
        if maps is None:
            # each case is tested once, as a Fraction's == and bool are Python calls
            if scale == 1:
                maps = dict(e.singles), dict(e.doubles), dict(e.triples)
            elif scale == -1:
                maps = [{k: -c for k, c in m.items()} for m in e._values()]
            elif not scale:
                maps = [{} for _ in e._values()]  # still refuses a non-element, as neg does
            else:
                maps = [{k: scale * c for k, c in m.items()} for m in e._values()]
                for m in maps:
                    _ints(m)
            continue
        if not scale:
            continue
        one = scale == 1
        for out, m in zip(maps, (e.singles, e.doubles, e.triples)):
            if not m:
                continue
            get = out.get
            for key, coeff in m.items():
                if not one:
                    coeff = scale * coeff
                total = get(key)
                if total is not None:
                    coeff = total + coeff
                if type(coeff) is not int and coeff.denominator == 1:
                    coeff = coeff.numerator
                if coeff:
                    out[key] = coeff
                else:
                    del out[key]
    return AaaElement._trusted(*maps)


def add(a: AaaElement, b: AaaElement) -> AaaElement:
    """Elementwise sum; keys whose coefficients cancel are removed."""
    return _sum(((1, a), (1, b)))


def neg(a: AaaElement) -> AaaElement:
    return _sum(((-1, a),))


def sub(a: AaaElement, b: AaaElement) -> AaaElement:
    return _sum(((1, a), (-1, b)))


def scalar_mul(c: object, a: AaaElement) -> AaaElement:
    """Multiply every coefficient by the exact scalar ``c``."""
    return _sum(((as_coeff(c), a),))


def mul(ctx: AlgebraContext, a: AaaElement, b: AaaElement) -> AaaElement:
    """Product of two elements under ``ctx``.

    Singles of ``a`` times singles of ``b`` land on two-symbol keys
    ``(i, j)``; doubles of ``a`` times singles of ``b`` land on
    ``(i, j, k)``; and singles of ``a`` times doubles of ``b`` land on
    ``(i, j, k)`` scaled by ``ctx.k``, which is the rewrite
    ``i(jk) = K*(ij)k``.  Every other pairing has total degree four or
    more and contributes nothing, so the result never has single-symbol
    terms.
    """
    # Products and sums of ints are ints: only a Fraction operand or K calls for the walks.
    k = ctx.k
    operands = a.singles.values(), a.doubles.values(), b.singles.values(), b.doubles.values()
    walk = type(k) is not int or not {int}.issuperset(map(type, chain(*operands)))
    # Keys within each block are distinct, so the first two blocks assign; only the K
    # block can meet keys already present, and when block 1 is empty it is one comprehension.
    doubles = _doubles(a, b, walk)
    triples = {ij + x: ca * cb for ij, ca in a.doubles.items() for x, cb in b.singles.items()}
    if k and not triples:  # a nonzero times a nonzero is never zero
        triples = {i + jl: kca * cb for i, ca in a.singles.items() for kca in (k * ca,)
                   for jl, cb in b.doubles.items()}
    elif k:
        for i, ca in a.singles.items():
            kca = k * ca
            for jl, cb in b.doubles.items():
                key = i + jl
                total = triples.get(key, 0) + kca * cb
                if total:
                    triples[key] = total
                else:
                    del triples[key]
    if walk:
        _ints(triples)
    return AaaElement._trusted({}, doubles, triples)


def _doubles(a: AaaElement, b: AaaElement, walk: bool | None = None) -> dict:
    """Singles of ``a`` times singles of ``b``: the degree-2 part of ``a*b``, and all of it
    that another product reads.  Integral Fractions become ints; ``walk`` says whether an
    operand may hold a Fraction, and by default the singles are looked at."""
    doubles = {i + j: ca * cb for i, ca in a.singles.items() for j, cb in b.singles.items()}
    if walk is None:
        walk = not {int}.issuperset(map(type, chain(a.singles.values(), b.singles.values())))
    if walk:
        _ints(doubles)
    return doubles

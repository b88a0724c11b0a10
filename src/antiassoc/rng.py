"""Deterministic pseudorandom elements.

The generator is xoshiro256** seeded through SplitMix64 (the public
domain algorithms of Blackman and Vigna), implemented in pure integer
arithmetic so a given seed yields the same element on every platform.

:func:`raaa` consumes the stream in a fixed order: for each requested
term, its symbols left to right, then its coefficient.  Degree-1 terms
are drawn first, then degree-2, then degree-3.
"""

from __future__ import annotations

from typing import Sequence

from .core import AaaElement, AlgebraError, _build, _check_symbols

__all__ = [
    "EmptyAlphabetError",
    "raaa",
]

_MASK64 = (1 << 64) - 1


class EmptyAlphabetError(AlgebraError):
    """raaa() needs at least one symbol to draw from."""


class SplitMix64:
    """SplitMix64 stream; used for seed expansion and derived substreams."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with the reference update rule.

    The four state words come from successive SplitMix64 outputs, which
    can never all be zero (the mixing function is a bijection, so only
    one input maps to zero).
    """

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self._s = [sm.next_u64() for _ in range(4)]

    @classmethod
    def from_state(cls, s0: int, s1: int, s2: int, s3: int) -> Xoshiro256StarStar:
        rng = cls.__new__(cls)
        rng._s = [s0 & _MASK64, s1 & _MASK64, s2 & _MASK64, s3 & _MASK64]
        return rng

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); plain modulo, bias irrelevant here."""
        return self.next_u64() % n


DEFAULT_ALPHABET = ("a", "b", "c", "d")


def raaa(
    seed: int,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    n1: int = 5,
    n2: int = 5,
    n3: int = 5,
    coeff_range: tuple[int, int] = (1, 4),
) -> AaaElement:
    """A seed-determined pseudorandom element.

    Draws ``n1``/``n2``/``n3`` terms of degree 1/2/3, symbols uniform
    over ``alphabet`` and integer coefficients uniform over
    ``coeff_range``.  Duplicate keys accumulate, so printed coefficients
    can exceed the range maximum.  The same seed (with the same
    arguments) gives the same element everywhere.
    """
    alphabet = tuple(_check_symbols(alphabet))
    if not alphabet:
        raise EmptyAlphabetError("alphabet must contain at least one symbol")
    if min(n1, n2, n3) < 0:
        raise ValueError("term counts must be >= 0")
    lo, hi = coeff_range
    if not (isinstance(lo, int) and isinstance(hi, int)) or not 1 <= lo <= hi:
        raise ValueError("coeff_range must be integers with 1 <= lo <= hi")
    rng = Xoshiro256StarStar(seed)
    span = hi - lo + 1
    return _build(
        (tuple(alphabet[rng.below(len(alphabet))] for _ in range(width)), lo + rng.below(span))
        for width, count in ((1, n1), (2, n2), (3, n3))
        for _ in range(count)
    )

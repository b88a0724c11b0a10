"""Deterministic pseudorandom elements.

The generator is xoshiro256** seeded through SplitMix64 (the public
domain algorithms of Blackman and Vigna), one Python generator over four
local ints, so a given seed yields the same element on every platform.

:func:`raaa` consumes the stream in a fixed order: for each requested
term, its symbols left to right, then its coefficient.  Degree-1 terms
come first, then degree-2, then degree-3, in blocks of ``_BLOCK_TERMS``
terms, so its memory does not grow with the counts.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterator, Sequence

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


def _xoshiro256starstar(s0: int, s1: int, s2: int, s3: int) -> Iterator[int]:
    """The xoshiro256** outputs from state ``(s0, s1, s2, s3)``, without end."""
    mask = _MASK64
    s0, s1, s2, s3 = s0 & mask, s1 & mask, s2 & mask, s3 & mask
    while True:
        x = s1 * 5 & mask
        yield (x << 7 | x >> 57) * 9 & mask  # rotl(x, 7) * 9; the mask drops bits 64 and up
        t = s1 << 17 & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & mask


class Xoshiro256StarStar:
    """xoshiro256** with the reference update rule.

    The four state words come from successive SplitMix64 outputs, which
    can never all be zero (the mixing function is a bijection, so only
    one input maps to zero).  ``next_u64`` is ``stream.__next__``.
    """

    def __init__(self, seed: int):
        word = SplitMix64(seed).next_u64
        self.stream = _xoshiro256starstar(word(), word(), word(), word())
        self.next_u64 = self.stream.__next__

    @classmethod
    def from_state(cls, s0: int, s1: int, s2: int, s3: int) -> Xoshiro256StarStar:
        rng = cls.__new__(cls)
        rng.stream = _xoshiro256starstar(s0, s1, s2, s3)
        rng.next_u64 = rng.stream.__next__
        return rng

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); plain modulo, bias irrelevant here."""
        return self.next_u64() % n


DEFAULT_ALPHABET = ("a", "b", "c", "d")
_BLOCK_TERMS = 256  # its set-up is negligible, its peak memory a few kB


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
    draws = Xoshiro256StarStar(seed).stream
    s, n, span = alphabet, len(alphabet), hi - lo + 1

    def blocks():  # zip takes its arguments' next draws left to right
        for done in range(0, n1, _BLOCK_TERMS):
            d = islice(draws, 2 * min(n1 - done, _BLOCK_TERMS))
            yield [((s[a % n],), lo + c % span) for a, c in zip(d, d)]
        for done in range(0, n2, _BLOCK_TERMS):
            d = islice(draws, 3 * min(n2 - done, _BLOCK_TERMS))
            yield [((s[a % n], s[b % n]), lo + c % span) for a, b, c in zip(d, d, d)]
        for done in range(0, n3, _BLOCK_TERMS):
            d = islice(draws, 4 * min(n3 - done, _BLOCK_TERMS))
            yield [((s[a % n], s[b % n], s[e % n]), lo + c % span)
                   for a, b, e, c in zip(d, d, d, d)]

    return _build(chain.from_iterable(blocks()))

"""Randomized property suite behind ``aaa check``.

Each property runs a configurable number of independent trials from a
deterministic seed.  A failure report carries the per-trial seed and
the serialized inputs, so every counterexample is reproducible.

The suite is K-aware: it must pass for every associativity constant.
The triple-product law is tested in its general form
``u*(v*w) == k*((u*v)*w)``, and the collapse identity
``(a + a*x)*(b + x*b) == a*b``, exact at k = -1, is tested with its
general correction term ``(1+k)*((a*x)*b)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._oracle import naive_mul
from .core import (
    AaaElement,
    AlgebraContext,
    add,
    as_coeff,
    mul,
    scalar_mul,
    zero,
)
from .rng import SplitMix64, Xoshiro256StarStar, raaa
from .textio import parse, serialize

__all__ = ["PropertyReport", "run_suite", "random_rational_element"]


class PropertyReport(NamedTuple):
    name: str
    passed: int
    trials: int
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None and self.passed == self.trials


_RATIONAL_ALPHABET = ("a", "b", "c", "d", "foo", "x1")


def _scalar(rng: Xoshiro256StarStar) -> Fraction:
    return Fraction(rng.below(19) - 9, 1 + rng.below(9))


def random_rational_element(seed: int) -> AaaElement:
    """A seed-determined element with rational (not just integer) coefficients."""
    rng = Xoshiro256StarStar(seed)
    maps: tuple[dict, dict, dict] = ({}, {}, {})
    for width in (1, 2, 3):
        for _ in range(rng.below(5)):
            key = tuple(
                _RATIONAL_ALPHABET[rng.below(len(_RATIONAL_ALPHABET))]
                for _ in range(width)
            )
            coeff = as_coeff(_scalar(rng))
            if coeff:
                maps[width - 1][key] = coeff
    return AaaElement._trusted(*maps)


def _fmt(**elements: AaaElement) -> str:
    return " ".join(f"{name}={serialize(e)!r}" for name, e in elements.items())


def _check_distributivity(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    u, v, w = (raaa(seeds.next_u64()) for _ in range(3))
    if mul(ctx, u, add(v, w)) != add(mul(ctx, u, v), mul(ctx, u, w)):
        return "left: " + _fmt(u=u, v=v, w=w)
    if mul(ctx, add(u, v), w) != add(mul(ctx, u, w), mul(ctx, v, w)):
        return "right: " + _fmt(u=u, v=v, w=w)
    return None


def _check_bilinearity(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    rng = Xoshiro256StarStar(seeds.next_u64())
    a, b = _scalar(rng), _scalar(rng)
    u, v = raaa(seeds.next_u64()), raaa(seeds.next_u64())
    lhs = mul(ctx, scalar_mul(a, u), scalar_mul(b, v))
    rhs = scalar_mul(a * b, mul(ctx, u, v))
    if lhs != rhs:
        return f"a={a} b={b} " + _fmt(u=u, v=v)
    return None


def _check_triple_product_law(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    u, v, w = (raaa(seeds.next_u64()) for _ in range(3))
    lhs = mul(ctx, u, mul(ctx, v, w))
    rhs = scalar_mul(ctx.k, mul(ctx, mul(ctx, u, v), w))
    if lhs != rhs:
        return _fmt(u=u, v=v, w=w)
    return None


def _check_nilpotency(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    a, b, c, d = (raaa(seeds.next_u64()) for _ in range(4))
    if mul(ctx, mul(ctx, mul(ctx, a, b), c), d) != zero():
        return "((ab)c)d: " + _fmt(a=a, b=b, c=c, d=d)
    if mul(ctx, mul(ctx, a, b), mul(ctx, c, d)) != zero():
        return "(ab)(cd): " + _fmt(a=a, b=b, c=c, d=d)
    return None


def _check_collapse_identity(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    a, b, x = (raaa(seeds.next_u64()) for _ in range(3))
    lhs = mul(ctx, add(a, mul(ctx, a, x)), add(b, mul(ctx, x, b)))
    correction = scalar_mul(1 + ctx.k, mul(ctx, mul(ctx, a, x), b))
    if lhs != add(mul(ctx, a, b), correction):
        return _fmt(a=a, b=b, x=x)
    return None


def _check_oracle(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    u, v = raaa(seeds.next_u64()), raaa(seeds.next_u64())
    if mul(ctx, u, v) != naive_mul(ctx.k, u, v):
        return _fmt(u=u, v=v)
    return None


def _check_round_trip(ctx: AlgebraContext, seeds: SplitMix64) -> Optional[str]:
    e = random_rational_element(seeds.next_u64())
    text = serialize(e)
    if parse(text) != e:
        return f"text={text!r}"
    return None


_PROPERTIES: list[tuple[str, Callable[[AlgebraContext, SplitMix64], Optional[str]]]] = [
    ("distributivity", _check_distributivity),
    ("bilinearity", _check_bilinearity),
    ("triple product law u(vw) == k(uv)w", _check_triple_product_law),
    ("nilpotency of degree-4 products", _check_nilpotency),
    ("collapse identity (a+ax)(b+xb) == ab + (1+k)(ax)b", _check_collapse_identity),
    ("oracle equivalence (tree rewriting)", _check_oracle),
    ("serialize/parse round trip", _check_round_trip),
]


def run_suite(k: object = -1, trials: int = 1000, seed: int = 0) -> list[PropertyReport]:
    """Run every property ``trials`` times; reports in fixed order."""
    ctx = AlgebraContext(k)
    property_seeds = SplitMix64(seed)
    reports: list[PropertyReport] = []
    for name, check in _PROPERTIES:
        base = property_seeds.next_u64()
        trial_seeds = SplitMix64(base)
        passed = 0
        counterexample = None
        for trial in range(trials):
            case_seed = trial_seeds.next_u64()
            detail = check(ctx, SplitMix64(case_seed))
            if detail is None:
                passed += 1
            else:
                counterexample = f"trial {trial} (case seed {case_seed}): {detail}"
                break
        reports.append(PropertyReport(name, passed, trials, counterexample))
    return reports

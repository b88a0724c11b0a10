"""Randomized property suite behind ``aaa check``.

A property is a name, the names of its inputs, a *draw* from a case seed's
:class:`SplitMix64` stream to the inputs and a *predicate* from ``(ctx,
*inputs)`` to None when the law holds, else a label; :func:`run_suite` runs
each for ``trials`` trials and reports the case seed and inputs of a failure.

The suite must pass for every associativity constant K: the triple-product
law is ``u*(v*w) == k*((u*v)*w)``, and the collapse identity
``(a + a*x)*(b + x*b) == a*b``, exact at k = -1, carries the correction
term ``(1+k)*((a*x)*b)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from ._oracle import naive_mul
from .core import AaaElement, AlgebraContext, add, as_coeff, mul, scalar_mul, zero
from .rng import SplitMix64, raaa, xoshiro
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


def _scalar(d: Iterator[int]) -> Fraction:
    return Fraction(next(d) % 19 - 9, 1 + next(d) % 9)


def random_rational_element(seed: int) -> AaaElement:
    """A seed-determined element with rational (not just integer) coefficients."""
    d = xoshiro(seed)
    maps: tuple[dict, dict, dict] = ({}, {}, {})
    for width in (1, 2, 3):
        for _ in range(next(d) % 5):
            key = tuple(
                _RATIONAL_ALPHABET[next(d) % len(_RATIONAL_ALPHABET)]
                for _ in range(width)
            )
            coeff = as_coeff(_scalar(d))
            if coeff:
                maps[width - 1][key] = coeff
    return AaaElement._trusted(*maps)


# Draws: each takes its seeds from the case seed's stream, left to right.
def _raaas(count: int) -> Callable[[SplitMix64], tuple]:
    return lambda seeds: tuple(raaa(seeds.next_u64()) for _ in range(count))


def _scalars_and_raaas(seeds: SplitMix64) -> tuple:
    d = xoshiro(seeds.next_u64())
    return _scalar(d), _scalar(d), raaa(seeds.next_u64()), raaa(seeds.next_u64())


# Predicates: None when the law holds, else the label of the side that failed.
def _distributivity(ctx: AlgebraContext, u, v, w) -> Optional[str]:
    if mul(ctx, u, add(v, w)) != add(mul(ctx, u, v), mul(ctx, u, w)):
        return "left: "
    if mul(ctx, add(u, v), w) != add(mul(ctx, u, w), mul(ctx, v, w)):
        return "right: "
    return None


def _bilinearity(ctx: AlgebraContext, a, b, u, v) -> Optional[str]:
    lhs = mul(ctx, scalar_mul(a, u), scalar_mul(b, v))
    return None if lhs == scalar_mul(a * b, mul(ctx, u, v)) else ""


def _triple_product_law(ctx: AlgebraContext, u, v, w) -> Optional[str]:
    lhs = mul(ctx, u, mul(ctx, v, w))
    return None if lhs == scalar_mul(ctx.k, mul(ctx, mul(ctx, u, v), w)) else ""


def _nilpotency(ctx: AlgebraContext, a, b, c, d) -> Optional[str]:
    if mul(ctx, mul(ctx, mul(ctx, a, b), c), d) != zero():
        return "((ab)c)d: "
    if mul(ctx, mul(ctx, a, b), mul(ctx, c, d)) != zero():
        return "(ab)(cd): "
    return None


def _collapse_identity(ctx: AlgebraContext, a, b, x) -> Optional[str]:
    lhs = mul(ctx, add(a, mul(ctx, a, x)), add(b, mul(ctx, x, b)))
    correction = scalar_mul(1 + ctx.k, mul(ctx, mul(ctx, a, x), b))
    return None if lhs == add(mul(ctx, a, b), correction) else ""


def _oracle(ctx: AlgebraContext, u, v) -> Optional[str]:
    return None if mul(ctx, u, v) == naive_mul(ctx.k, u, v) else ""


def _round_trip(ctx: AlgebraContext, text: AaaElement) -> Optional[str]:
    return None if parse(serialize(text)) == text else ""


# (name, input names, draw, predicate); the round trip's element prints as its text.
_PROPERTIES: list[tuple[str, tuple[str, ...], Callable, Callable]] = [
    ("distributivity", ("u", "v", "w"), _raaas(3), _distributivity),
    ("bilinearity", ("a", "b", "u", "v"), _scalars_and_raaas, _bilinearity),
    ("triple product law u(vw) == k(uv)w", ("u", "v", "w"), _raaas(3), _triple_product_law),
    ("nilpotency of degree-4 products", ("a", "b", "c", "d"), _raaas(4), _nilpotency),
    ("collapse identity (a+ax)(b+xb) == ab + (1+k)(ax)b", ("a", "b", "x"), _raaas(3),
     _collapse_identity),
    ("oracle equivalence (tree rewriting)", ("u", "v"), _raaas(2), _oracle),
    ("serialize/parse round trip", ("text",),
     lambda seeds: (random_rational_element(seeds.next_u64()),), _round_trip),
]


def _describe(names: tuple[str, ...], inputs: tuple) -> str:
    """Elements as ``name='<canonical text>'``, scalars as ``name=<str>``."""
    return " ".join(f"{name}={serialize(x)!r}" if isinstance(x, AaaElement) else f"{name}={x}"
                    for name, x in zip(names, inputs))


def run_suite(k: object = -1, trials: int = 1000, seed: int = 0) -> list[PropertyReport]:
    """Run every property ``trials`` times; reports in fixed order."""
    ctx = AlgebraContext(k)
    property_seeds = SplitMix64(seed)
    reports: list[PropertyReport] = []
    for name, input_names, draw, predicate in _PROPERTIES:
        trial_seeds = SplitMix64(property_seeds.next_u64())
        passed, counterexample = 0, None
        for trial in range(trials):
            case_seed = trial_seeds.next_u64()
            inputs = draw(SplitMix64(case_seed))
            label = predicate(ctx, *inputs)
            if label is not None:
                counterexample = (f"trial {trial} (case seed {case_seed}): "
                                  f"{label}{_describe(input_names, inputs)}")
                break
            passed += 1
        reports.append(PropertyReport(name, passed, trials, counterexample))
    return reports

"""Canonical text and arithmetic, written apart from ``antiassoc``.

The benchmark checks the program's output against these routines, so they
follow the README's definitions and share no code with the package:

* an element is a map from term key (a tuple of 1 to 3 symbols) to a
  nonzero ``Fraction``;
* canonical text lists terms by degree, then by key, as
  ``sign magnitude key`` joined by single spaces, and ``0`` when empty;
* the product under ``k`` is singles x singles -> doubles, doubles x
  singles -> triples, and ``k`` * singles x doubles -> triples.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SYM = r"[A-Za-z_][A-Za-z_0-9]*"
_TERM_RE = re.compile(
    rf"\s*([+-])([0-9]+)(?:/([0-9]+))?(\({_SYM}\.{_SYM}\){_SYM}|{_SYM}(?:\.{_SYM})?)"
)


def key_text(key: tuple) -> str:
    if len(key) == 3:
        return f"({key[0]}.{key[1]}){key[2]}"
    return ".".join(key)


def term_text(key: tuple, coeff: Fraction) -> str:
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    num = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return f"{sign}{num}{key_text(key)}"


def canonical(element: dict) -> str:
    """Canonical one-line text of an element map."""
    keys = sorted((k for k, c in element.items() if c), key=lambda k: (len(k), k))
    if not keys:
        return "0"
    return " ".join(term_text(k, element[k]) for k in keys)


def parse_terms(text: str) -> list:
    """The (key, coefficient) pairs of a line in the text format, in order.

    Raises ``ValueError`` on anything outside the format.
    """
    if text.strip() == "0":
        return []
    terms = []
    pos = 0
    end = len(text.rstrip())
    while pos < end:
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad term at column {pos + 1}")
        sign, num, den, key = m.groups()
        coeff = Fraction(int(num), int(den or 1))
        if sign == "-":
            coeff = -coeff
        if key.startswith("("):
            first, rest = key[1:].split(".", 1)
            second, third = rest.split(")")
            terms.append(((first, second, third), coeff))
        else:
            terms.append((tuple(key.split(".")), coeff))
        pos = m.end()
    if not terms:
        raise ValueError("empty line")
    return terms


def accumulate(terms) -> dict:
    out: dict = {}
    for key, coeff in terms:
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def parse(text: str) -> dict:
    return accumulate(parse_terms(text))


def add(x: dict, y: dict) -> dict:
    return accumulate(list(x.items()) + list(y.items()))


def mul(x: dict, y: dict, k: Fraction = Fraction(-1)) -> dict:
    xs = [(key[0], c) for key, c in x.items() if len(key) == 1]
    xd = [(key, c) for key, c in x.items() if len(key) == 2]
    ys = [(key[0], c) for key, c in y.items() if len(key) == 1]
    yd = [(key, c) for key, c in y.items() if len(key) == 2]
    out = [((i, j), ci * cj) for i, ci in xs for j, cj in ys]
    out += [((i, j, l), cij * cl) for (i, j), cij in xd for l, cl in ys]
    out += [((i, j, l), k * ci * cjl) for i, ci in xs for (j, l), cjl in yd]
    return accumulate(out)

"""Canonical text format: serialization and parsing of elements.

The canonical form is a single line, terms ordered by degree and then
lexicographically by symbol tuple, separated by single spaces.  Every
term carries an explicit sign, a magnitude and a key::

    +1a -2b.foo +3/2(p.q)r

Integer magnitudes print without a denominator; other rationals print
as ``n/d`` with the sign attached to the whole term.  The zero element
prints as ``0``.

:func:`parse` reads this format back.  The grammar is::

    element := '0' | term+
    term    := ('+' | '-') digits ('/' digits)? key
    key     := sym | sym '.' sym | '(' sym '.' sym ')' sym
    sym     := [A-Za-z_][A-Za-z_0-9]*

``sym`` is :data:`antiassoc.core.SYMBOL_RE`, the one rule that
:func:`~antiassoc.core.check_symbol` enforces.  Whitespace between terms
is arbitrary on input.  Duplicate keys accumulate and zero-coefficient
terms are dropped, so parsing is total on the grammar, up to the
interpreter's limit on the digits of one number, and
``parse(serialize(e)) == e`` for every element that serializes.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterator

from .core import SYMBOL_RE, AaaElement, AlgebraError, Coefficient, TermKey, _build, zero

__all__ = ["ParseError", "serialize", "parse"]


class ParseError(AlgebraError):
    """Syntax error in canonical text, with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column


def serialize(element: AaaElement) -> str:
    """Render the canonical one-line form; equal elements render identically.

    Magnitudes are printed by ``str()``, which raises ``ValueError`` for an
    int longer than ``sys.get_int_max_str_digits()`` (4300 by default).
    """
    terms = [f"{'' if c < 0 else '+'}{c}{i}" for (i,), c in sorted(element.singles.items())]
    terms += [f"{'' if c < 0 else '+'}{c}{i}.{j}" for (i, j), c in sorted(element.doubles.items())]
    terms += [
        f"{'' if c < 0 else '+'}{c}({i}.{j}){k}"
        for (i, j, k), c in sorted(element.triples.items())
    ]
    return " ".join(terms) or "0"


_DIGITS_RE = re.compile(r"[0-9]+")
_WS_RE = re.compile(r"\s*")


def _parse_symbol(text: str, i: int) -> tuple[str, int]:
    m = SYMBOL_RE.match(text, i)
    if not m:
        raise ParseError("expected symbol", i + 1)
    return m.group(), m.end()


def _parse_key(text: str, i: int) -> tuple[TermKey, int]:
    if i < len(text) and text[i] == "(":
        open_col = i + 1
        first, i = _parse_symbol(text, i + 1)
        if i >= len(text) or text[i] != ".":
            raise ParseError("expected '.' inside '(...)'", i + 1)
        second, i = _parse_symbol(text, i + 1)
        if i >= len(text) or text[i] != ")":
            raise ParseError("unclosed '('", open_col)
        third, i = _parse_symbol(text, i + 1)
        return (first, second, third), i
    first, i = _parse_symbol(text, i)
    if i < len(text) and text[i] == ".":
        second, i = _parse_symbol(text, i + 1)
        return (first, second), i
    return (first,), i


def parse(text: str) -> AaaElement:
    """Parse canonical text into an element.

    Raises :class:`ParseError` (carrying a 1-based ``column``) on any
    input outside the grammar, and at a number with more digits than
    ``sys.get_int_max_str_digits()`` allows.
    """
    i = _WS_RE.match(text).end()
    if i >= len(text):
        raise ParseError("empty input", i + 1)
    if text[i] == "0":
        j = _WS_RE.match(text, i + 1).end()
        if j < len(text):
            raise ParseError("unexpected text after zero element", j + 1)
        return zero()
    return _build(_terms(text, i))


def _terms(text: str, i: int) -> Iterator[tuple[TermKey, Coefficient]]:
    while i < len(text):
        ch = text[i]
        if ch not in "+-":
            raise ParseError(f"expected '+' or '-', found {ch!r}", i + 1)
        sign = -1 if ch == "-" else 1
        i += 1
        start = i
        try:
            m = _DIGITS_RE.match(text, i)
            if not m:
                raise ParseError("expected digits after sign", i + 1)
            num = int(m.group())
            i = m.end()
            den = 1
            if i < len(text) and text[i] == "/":
                m = _DIGITS_RE.match(text, i + 1)
                if not m:
                    raise ParseError("expected digits after '/'", i + 2)
                den = int(m.group())
                if den == 0:
                    raise ParseError("zero denominator", i + 2)
                i = m.end()
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"number longer than {limit} digits", start + 1) from None
        coeff: Coefficient = sign * num if den == 1 else Fraction(sign * num, den)
        key, i = _parse_key(text, i)
        yield key, coeff
        i = _WS_RE.match(text, i).end()

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
is arbitrary on input.  One ``findall`` scans a whole line, taking each
term, or any character that starts none; only when the line has such a
character, or a number that does not convert, does a diagnosis walk the
line from its first term and raise the first fault's error at its column.
Duplicate keys accumulate and zero-coefficient terms are dropped, so
parsing is total on the grammar, up to the interpreter's limit on the
digits of one number, and ``parse(serialize(e)) == e`` for every element
that serializes.  Coefficient texts are read by ``core._COEFFS``: ``as_coeff``
and the statement lexer share its rule and its process-wide cap of 4,096 texts
(``parse`` keys signed texts like ``+3/6``, the lexer unsigned ones like ``3/6``).
"""

from __future__ import annotations

import re
import sys
from typing import NoReturn

from .core import _COEFFS, SYMBOL_RE, AaaElement, AlgebraError, _build, zero

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
    terms: list[str] = []
    for texts in (
        {i: c for (i,), c in element.singles.items()},
        {f"{i}.{j}": c for (i, j), c in element.doubles.items()},
        {f"({i}.{j}){k}": c for (i, j, k), c in element.triples.items()},
    ):
        # Key texts sort in their tuples' order: '.' and ')' sort below every character
        # of SYMBOL_RE, so a symbol sorts before the symbols it begins.  The sign is read
        # from the coefficient's text, which is cheaper than a Fraction's ``c < 0``.
        terms += [s + t if (s := str(texts[t]))[0] == "-" else f"+{s}{t}" for t in sorted(texts)]
    return " ".join(terms) or "0"


_S = SYMBOL_RE.pattern
# A whole term, or one character that starts none, whose empty coefficient text fails to convert:
# the matches of findall cover a line from its first term.
_TERMS_RE = re.compile(
    rf"([+-][0-9]+(?:/[0-9]+)?)(?:\(({_S})\.({_S})\)({_S})|({_S})(?:\.({_S}))?)\s*|\S"
)
# The same grammar with every piece allowed to match empty, compiled at the first error: it always
# matches, and the first required piece left empty (groups 1-3, then key's 5-10) is the error.
_DIAGNOSIS = (
    rf"([+-]?)([0-9]*)(?:/([0-9]*))?(\()?({_S}|)(?(4)(\.?)({_S}|)(\)?)({_S}|)|(?:\.({_S}|))?)"
)
_KEY_ERRORS = {6: "expected '.' inside '(...)'", 8: "unclosed '('"}
_WS_RE = re.compile(r"\s*")


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
    try:
        pairs = [
            ((t1, t2, t3) if t1 else (s1, s2) if s2 else (s1,), _COEFFS[c])
            for c, t1, t2, t3, s1, s2 in _TERMS_RE.findall(text, i)
        ]
    except (ValueError, ZeroDivisionError):
        _diagnose(text, i)
    return _build(pairs)


def _diagnose(text: str, i: int) -> NoReturn:
    """Raise the error of the first term at or after ``i`` that breaks the grammar.

    ``parse`` passes the start of the line's first term: the walk stops at the
    first fault in text order, whether in the grammar or in a number, and a
    term such as ``+1a.`` is read whole, where the scan stops short of its '.'.
    """
    while True:
        m = re.compile(_DIAGNOSIS).match(text, i)
        sign, num, den = m.group(1, 2, 3)
        if not sign:
            raise ParseError(f"expected '+' or '-', found {text[i]!r}", i + 1)
        if not num:
            raise ParseError("expected digits after sign", i + 2)
        try:
            int(num)
            if den == "":
                raise ParseError("expected digits after '/'", m.start(3) + 1)
            if den and not int(den):
                raise ParseError("zero denominator", m.start(3) + 1)
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError(f"number longer than {limit} digits", i + 2) from None
        for g in range(5, 11):
            if m[g] == "":  # an unclosed '(' is reported at the '('
                column = m.start(4 if g == 8 else g) + 1
                raise ParseError(_KEY_ERRORS.get(g, "expected symbol"), column)
        i = _WS_RE.match(text, m.end()).end()

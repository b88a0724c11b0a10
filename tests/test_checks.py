"""The failure path of ``aaa check``: properties broken on purpose.

Each scenario replaces one operation that :mod:`antiassoc.checks` looks up as
a module global (``mul``, ``add``, ``scalar_mul`` or ``parse``) with a wrong
one, at fixed seeds, and pins every report's pass count and counterexample
text.  Between them the scenarios reach every label of the suite (``left:``,
``right:``, ``((ab)c)d:``, ``(ab)(cd):``), bilinearity's scalars and the round
trip's ``text=``.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import pytest

from antiassoc import checks, cli
from antiassoc.core import from_symbols

_mul, _add, _scalar_mul, _parse = checks.mul, checks.add, checks.scalar_mul, checks.parse
_Z = from_symbols(["z"])


def _mul_off_when(wrong):
    """A ``mul`` that is off by ``+1z`` whenever ``wrong(a, b)`` holds."""
    return lambda ctx, a, b: _add(_mul(ctx, a, b), _Z) if wrong(a, b) else _mul(ctx, a, b)


# One raaa() draw has at most 5 doubles, so more than 5 marks a sum or a product.
_BIG_LEFT = _mul_off_when(lambda a, b: len(a.doubles) > 5)
_BIG_RIGHT = _mul_off_when(lambda a, b: len(b.doubles) > 5)


def _degree_four_not_zero(ctx, a, b):
    """``+1z`` for a product of a product and a raaa() draw that should vanish."""
    out = _mul(ctx, a, b)
    return _Z if not a.singles and b.singles and not out else out


def _scalar_mul_off_for_fractions(c, e):
    return _scalar_mul(c + 1 if Fraction(c).denominator > 1 else c, e)


def _add_off_for_many_triples(a, b):
    out = _add(a, b)
    return _add(out, _Z) if len(a.triples) + len(b.triples) > 9 else out


def _parse_drops_fraction_terms(text):
    return _parse(" ".join(t for t in text.split() if "/" not in t) or "0")


# name -> (k, trials, seed, the module global to replace, its replacement)
SCENARIOS = {
    "passing at k=-1": (-1, 20, 5, None, None),
    "passing at k=3/2": ("3/2", 20, 6, None, None),
    "mul off everywhere": (-1, 20, 15, "mul", _mul_off_when(lambda a, b: True)),
    "mul wrong for a big left factor": (-1, 20, 7, "mul", _BIG_LEFT),
    "mul wrong for a big right factor": (-1, 20, 8, "mul", _BIG_RIGHT),
    "mul wrong for a big left factor at k=3/2": ("3/2", 20, 9, "mul", _BIG_LEFT),
    "degree-4 product not zero": (-1, 20, 10, "mul", _degree_four_not_zero),
    # with neither factor of degree 1, as in (ab)(cd)
    "product of products off": (-1, 20, 11, "mul", _mul_off_when(
        lambda a, b: a and b and not a.singles and not b.singles)),
    "scalar_mul off for fractions": (-1, 20, 12, "scalar_mul", _scalar_mul_off_for_fractions),
    "add off for many triples": (-1, 20, 13, "add", _add_off_for_many_triples),
    "parse drops fraction terms": (-1, 20, 14, "parse", _parse_drops_fraction_terms),
}


def _reports(monkeypatch, name):
    k, trials, seed, target, replacement = SCENARIOS[name]
    if target is not None:
        monkeypatch.setattr(checks, target, replacement)
    return [[r.name, r.passed, r.trials, r.counterexample] for r in
            checks.run_suite(k=k, trials=trials, seed=seed)]


# Each scenario's reports as [name, passed, trials, counterexample] lists.
with open(os.path.join(os.path.dirname(__file__), "check_failures.json")) as _f:
    GOLDEN = json.load(_f)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_reports_match_the_golden(monkeypatch, name):
    assert _reports(monkeypatch, name) == GOLDEN[name]


def test_the_goldens_reach_every_label():
    texts = [r[3] for reports in GOLDEN.values() for r in reports if r[3]]
    for pattern in (r"\): left: u='", r"\): right: u='", r"\): \(\(ab\)c\)d: a='",
                    r"\): \(ab\)\(cd\): a='", r"\): a=-?[0-9/]+ b=-?[0-9/]+ u='",
                    r"\): a='.* x='", r"\): u='", r"\): text='"):
        assert any(re.search(pattern, t) for t in texts), pattern


def test_cli_check_with_one_broken_property(monkeypatch, capsys):
    monkeypatch.setattr(checks, "parse", _parse_drops_fraction_terms)
    assert cli.main(["check", "--trials", "20", "--seed", "14"]) == 1
    lines = capsys.readouterr().out.splitlines()
    golden = GOLDEN["parse drops fraction terms"]
    assert lines == [
        "seed: 14",
        *(f"{name}: {passed}/{trials}" for name, passed, trials, _ in golden[:-1]),
        "serialize/parse round trip: 0/20",
        f"  counterexample: {golden[-1][3]}",
        "6/7 properties passed (20 trials each)",
    ]
    assert lines[-2].startswith("  counterexample: trial 0 (case seed ")

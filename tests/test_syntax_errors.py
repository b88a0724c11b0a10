"""Syntax-error goldens for the statement language.

Each row of ``syntax_errors.json`` is a well-formed line with one token
deleted, duplicated or swapped with its neighbour, and the class, message
and column of the error ``parse_program`` gives for it.
``make_syntax_errors.py`` writes the file from a fixed seed.
"""

from __future__ import annotations

import json

import make_syntax_errors
from antiassoc.exprlang import ExprError, parse_program

with open(make_syntax_errors.PATH, encoding="utf-8") as _f:
    ROWS = json.load(_f)


def test_each_line_gives_its_recorded_error():
    wrong = []
    for row in ROWS:
        try:
            parse_program(row["src"])
        except ExprError as exc:
            got = (type(exc).__name__, exc.message, exc.pos)
        else:
            got = None
        if got != (row["error"], row["message"], row["col"]):
            wrong.append((row["src"], got))
    assert len(ROWS) >= 300
    assert not wrong, f"{len(wrong)} lines differ, such as {wrong[:3]}"


def test_the_file_is_what_its_script_writes():
    assert make_syntax_errors.rows() == ROWS

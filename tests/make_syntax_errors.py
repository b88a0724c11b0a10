"""Write ``tests/syntax_errors.json``: malformed statement lines and their errors.

A seeded generator draws well-formed lines of the statement language as
lists of tokens, each with the whitespace before it.  Each malformed line is
one such line with one token deleted, duplicated or swapped with its
neighbour.  A line is kept only if ``parse_program`` refuses it with
``ExprSyntaxError`` or ``LexError``, and the file records the error's class,
message and column.  ``tests/test_syntax_errors.py`` checks that the parser
still gives each of them.  Run from the repository root::

    PYTHONPATH=src python tests/make_syntax_errors.py
"""

from __future__ import annotations

import json
import os
import random

from antiassoc.exprlang import ExprSyntaxError, LexError, parse_program

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "syntax_errors.json")
SEED = 26
COUNT = 400

_NAMES = ("a", "b", "c", "v", "x0")
_NUMBERS = ("0", "2", "3/2", "12")
_SPACES = ("", "", " ", " ", "  ", "\t")
_DEGREES = ("single", "double", "triple")


class _Line:
    """Draws one well-formed line as a list of token texts."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.tokens: list[str] = []

    def put(self, *texts: str) -> None:
        self.tokens += texts

    def symbols(self) -> None:
        names = self.rng.sample(_NAMES, self.rng.randint(1, 3))
        if len(names) == 1 and self.rng.random() < 0.5:
            self.put(names[0])
            return
        self.put("(")
        for i, name in enumerate(names):
            if i:
                self.put(",")
            self.put(name)
        self.put(")")

    def call(self, depth: int) -> None:
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            self.put(rng.choice(_DEGREES), "(")
            self.expr(depth)
        elif kind == 1:
            self.put("set_" + rng.choice(_DEGREES), "(")
            self.expr(depth)
            self.put(",")
            if rng.random() < 0.5:
                self.put("0")
            else:
                self.expr(depth)
        elif kind in (2, 3):
            self.put("extract" if kind == 2 else "replace", "(")
            self.expr(depth)
            if kind == 3:
                self.put(",", rng.choice(_NUMBERS))
            for key in rng.sample(("s1", "d1", "d2", "t1"), rng.randint(1, 2)):
                self.put(",", key, "=")
                self.symbols()
        else:
            self.put("raaa", "(")
            keys = rng.sample(("alphabet", "n1", "n2", "n3"), rng.randint(0, 2))
            if rng.random() < 0.5 or not keys:
                self.put(str(rng.randrange(100)))
                if keys:
                    self.put(",")
            for i, key in enumerate(keys):
                if i:
                    self.put(",")
                self.put(key, "=")
                if key == "alphabet":
                    self.symbols()
                else:
                    self.put(str(rng.randrange(4)))
        self.put(")")

    def atom(self, depth: int) -> None:
        r = self.rng.random()
        if r < 0.5 or depth == 0:
            self.put(self.rng.choice(_NAMES))
        elif r < 0.75:
            self.put("(")
            self.expr(depth - 1)
            self.put(")")
        else:
            self.call(depth - 1)

    def unary(self, depth: int) -> None:
        self.put(*["-"] * self.rng.choice((0, 0, 0, 1, 2)))
        self.atom(depth)

    def term(self, depth: int) -> None:
        if self.rng.random() < 0.3:
            self.put(*["-"] * self.rng.choice((0, 0, 1)), self.rng.choice(_NUMBERS), "*")
        self.unary(depth)
        for _ in range(self.rng.choice((0, 0, 0, 1))):
            self.put("*")
            self.unary(depth)

    def expr(self, depth: int) -> None:
        self.term(depth)
        for _ in range(self.rng.choice((0, 1, 1, 2))):
            self.put(self.rng.choice("+-"))
            self.term(depth)

    def statement(self) -> None:
        kind, depth = self.rng.randrange(5), self.rng.randrange(3)
        if kind == 0:
            self.put("sym", *self.rng.sample(_NAMES, self.rng.randint(1, 3)))
        elif kind == 1:
            self.put("let", self.rng.choice(_NAMES), "=")
            self.expr(depth)
        else:
            self.expr(depth)
            if kind == 2:
                self.put("=")
                self.expr(depth)

    def line(self) -> list[str]:
        for i in range(self.rng.randint(1, 2)):
            if i:
                self.put(";")
            self.statement()
        return self.tokens


def _spaced(rng: random.Random, tokens: list[str]) -> list[tuple[str, str]]:
    """``(space, text)`` per token; two words always have space between them."""
    pairs = []
    for i, text in enumerate(tokens):
        space = rng.choice(_SPACES)
        if i and not space and (text[0].isalnum() or text[0] == "_") and (
            tokens[i - 1][-1].isalnum() or tokens[i - 1][-1] == "_"
        ):
            space = " "
        pairs.append((space, text))
    return pairs


def _mutated(rng: random.Random, pairs: list) -> str:
    """The line with one token deleted, duplicated or swapped with its neighbour."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs))
    how = rng.randrange(3)
    if how == 0:
        del pairs[i]
    elif how == 1:
        pairs.insert(i, pairs[i])
    elif i + 1 < len(pairs):
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
    else:
        pairs[i - 1], pairs[i] = pairs[i], pairs[i - 1]
    return "".join(space + text for space, text in pairs)


def rows(seed: int = SEED, count: int = COUNT) -> list[dict]:
    """``count`` refused lines, each with the error ``parse_program`` gives."""
    rng = random.Random(seed)
    out: list[dict] = []
    seen: set = set()
    while len(out) < count:
        pairs = _spaced(rng, _Line(rng).line())
        parse_program("".join(space + text for space, text in pairs))  # well-formed
        src = _mutated(rng, pairs)
        if src in seen:
            continue
        seen.add(src)
        try:
            parse_program(src)
        except (ExprSyntaxError, LexError) as exc:
            out.append({"src": src, "error": type(exc).__name__, "message": exc.message,
                        "col": exc.pos})
    return out


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as f:
        f.write("[\n" + ",\n".join(json.dumps(row) for row in rows()) + "\n]\n")
    print(f"wrote {COUNT} lines to {PATH}")

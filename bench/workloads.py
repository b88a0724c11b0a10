"""The benchmark's four workloads: seeded inputs and output checks.

Each workload turns ``--seed`` into batches.  A batch is one run of one
``antiassoc`` subcommand: its arguments, its standard input (a text for the
batch workloads, a list of lines for the closed-loop REPL), the units of
work it carries and the operations it attempts.  ``verify`` counts the
operations whose output is wrong; ``latencies`` turns the arrival times of
the output lines into reply latencies.  Nothing here imports ``antiassoc``:
expected outputs come from :mod:`reference`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import reference

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Batch:
    argv: list
    work: int
    ops: int
    stdin: str = ""
    statements: Optional[list] = None  # closed loop: one reply line per entry
    expect: dict = field(default_factory=dict)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))


def _line_terms(line: str) -> int:
    return 0 if line in ("0", "true", "false") else line.count(" ") + 1


class Workload:
    def work(self, batch: Batch, lines: list) -> int:
        """Units of work the batch completed, for ``work_per_s``."""
        return batch.work

    @staticmethod
    def latencies(stamps: list) -> list:
        """Reply latencies of a batch run from its output line arrival times.

        The gap before each output line is the time its operation took; the
        first line also carries start-up, which ``setup_s`` measures.
        """
        return [b - a for a, b in zip(stamps, stamps[1:])]


class Check(Workload):
    """``aaa check`` batches on the suite's tiny elements (n = 5, 4 symbols)."""

    name = "check"
    noop = Batch(["check", "--trials", "0", "--seed", "0"], work=0, ops=0)
    trials = 25
    properties = 7
    _report_re = re.compile(r"^(.+): (\d+)/(\d+)$")

    def __init__(self, seed: int):
        self.seed = seed

    def batch(self, index: int) -> Batch:
        case_seed = random.Random(self.seed * 1_000_003 + index).getrandbits(63)
        argv = ["check", "--trials", str(self.trials), "--seed", str(case_seed)]
        return Batch(argv, work=self.properties * self.trials, ops=self.properties,
                     expect={"seed": case_seed})

    def verify(self, batch: Batch, lines: list, code: int) -> int:
        n = self.trials
        reports = [self._report_re.match(line) for line in lines[1:-1]]
        passed = sum(1 for m in reports if m and m.group(2) == m.group(3) == str(n))
        failed = self.properties - min(passed, self.properties)
        framing_ok = (
            code == 0
            and len(lines) == self.properties + 2
            and lines[0] == f"seed: {batch.expect['seed']}"
            and lines[-1] == f"{self.properties}/{self.properties} properties passed ({n} trials each)"
        )
        return failed or (0 if framing_ok else 1)

    @staticmethod
    def latencies(stamps: list) -> list:
        # The seed line is printed just before the suite starts.
        return [stamps[-1] - stamps[0]] if len(stamps) >= 2 else []


_REPL_GENS = "abcdefgh"
_REPL_VARS = 6


class ReplSmall(Workload):
    """Closed loop over ``aaa repl``: long statements on small elements."""

    name = "repl_small"
    noop = Batch(["repl", "--seed", "0"], work=0, ops=0)
    session = 400

    def __init__(self, seed: int):
        self.seed = seed

    def _scalar(self, rng: random.Random) -> str:
        if rng.random() < 0.5:
            return str(rng.randint(2, 9))
        return f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"

    def _gen(self, rng: random.Random) -> str:
        return rng.choice(_REPL_GENS)

    def _sign(self, rng: random.Random) -> str:
        return "+" if rng.random() < 0.85 else "-"

    def _small_sum(self, rng: random.Random) -> str:
        parts = [self._gen(rng)]
        for _ in range(rng.randint(1, 3)):
            parts.append(f"{self._sign(rng)} {self._gen(rng)}")
        return "(" + " ".join(parts) + ")"

    def _summand(self, rng: random.Random) -> str:
        r = rng.random()
        if r < 0.5:
            return self._gen(rng)
        if r < 0.75:
            return f"{self._scalar(rng)}*{self._gen(rng)}"
        if r < 0.9:
            return self._small_sum(rng)
        return f"{self._gen(rng)}*{self._gen(rng)}"

    def _long_sum(self, rng: random.Random) -> str:
        parts = [self._summand(rng)]
        for _ in range(rng.randint(40, 80)):
            parts.append(f"{self._sign(rng)} {self._summand(rng)}")
        return " ".join(parts)

    def _product(self, rng: random.Random) -> str:
        return "*".join(self._small_sum(rng) for _ in range(rng.randint(2, 3)))

    def _var(self, rng: random.Random) -> str:
        return f"v{rng.randrange(_REPL_VARS)}"

    def _law(self, rng: random.Random) -> str:
        x, y, z, w = (self._small_sum(rng) for _ in range(4))
        return rng.choice((
            f"{x}*({y}*{z}) = -(({x}*{y})*{z})",
            f"{x}*({y} + {z}) = {x}*{y} + {x}*{z}",
            f"({x} + {y})*{z} = {x}*{z} + {y}*{z}",
            f"({x} + {x}*{y})*({z} + {y}*{z}) = {x}*{z}",
            f"{x}*{y}*{z}*{w} = {x} - {x}",
            f"2*({x} + {y}) = 2*{x} + 2*{y}",
        ))

    def _symbols(self, rng: random.Random, count: int) -> str:
        return "(" + ",".join(self._gen(rng) for _ in range(count)) + ")"

    def _selector(self, rng: random.Random) -> str:
        n1, n2, n3 = rng.randint(16, 32), rng.randint(16, 32), rng.randint(16, 32)
        cols = [f"s1={self._symbols(rng, n1)}"]
        cols += [f"d{i}={self._symbols(rng, n2)}" for i in (1, 2)]
        cols += [f"t{i}={self._symbols(rng, n3)}" for i in (1, 2, 3)]
        return ", ".join(cols)

    def _access(self, rng: random.Random) -> str:
        v, u = self._var(rng), self._var(rng)
        if rng.random() < 0.8:
            if rng.random() < 0.5:
                return f"extract({v}, {self._selector(rng)})"
            return f"replace({v}, {self._scalar(rng)}, {self._selector(rng)})"
        return rng.choice((
            f"set_single({v}, 0)",
            f"set_single({v}, single({u}))",
            f"set_double({v}, double({u}))",
            f"set_triple({v}, triple({u}))",
        ))

    def statement(self, rng: random.Random) -> tuple:
        """One statement line and whether its reply must be ``true``."""
        r = rng.random()
        if r < 0.25:
            return self._long_sum(rng), False
        if r < 0.30:
            return self._product(rng), False
        if r < 0.40:
            v = self._var(rng)
            return f"let {v} = {self._long_sum(rng)} + {self._product(rng)}; {v}", False
        if r < 0.90:
            return self._access(rng), False
        return self._law(rng), True

    def batch(self, index: int) -> Batch:
        rng = random.Random(self.seed * 1_000_003 + index)
        lines = [f"sym {' '.join(_REPL_GENS)}; {_REPL_GENS[0]}"]
        laws = [False]
        for i in range(_REPL_VARS):
            lines.append(f"let v{i} = {self._long_sum(rng)} + {self._product(rng)}; v{i}")
            laws.append(False)
        while len(lines) < self.session:
            line, law = self.statement(rng)
            lines.append(line)
            laws.append(law)
        return Batch(["repl", "--seed", "0"], work=len(lines), ops=len(lines),
                     statements=lines, expect={"laws": laws})

    def verify(self, batch: Batch, lines: list, code: int) -> int:
        laws = batch.expect["laws"]
        failed = max(0, len(laws) - len(lines))
        for law, line in zip(laws, lines):
            if law:
                failed += line != "true"
            else:
                try:
                    failed += reference.canonical(reference.parse(line)) != line
                except ValueError:
                    failed += 1
        extra = len(lines) > len(laws) or code != 0
        return min(len(laws), failed + extra)


_EVAL_ALPHABET = ",".join(f"p{i}" for i in range(40))


class EvalLarge(Workload):
    """``aaa eval`` on a short script over raaa elements of about 600 terms."""

    name = "eval_large"
    noop = Batch(["eval", "--seed", "0"], work=0, ops=0)
    n = 300
    digest_file = os.path.join(HERE, "eval_large_digests.json")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.raaa_seeds = [rng.getrandbits(48) for _ in range(3)]
        self._verified: dict = {}

    def script(self) -> list:
        opts = f"alphabet=({_EVAL_ALPHABET}), n1={self.n}, n2={self.n}, n3={self.n}"
        x, y, z = (f"raaa({s}, {opts})" for s in self.raaa_seeds)
        return [
            f"let x = {x}; x",
            f"let y = {y}; y",
            f"let z = {z}; z",
            "x*y",
            "(x + y)*z",
            "x*(y + z) = x*y + x*z",
            "x*(y*z) = -((x*y)*z)",
            "(x + x*z)*(y + z*y) = x*y",
        ]

    def batch(self, index: int) -> Batch:
        lines = self.script()
        return Batch(["eval", "--seed", "0"], work=0, ops=len(lines),
                     stdin="\n".join(lines) + "\n")

    def recorded_digest(self) -> Optional[str]:
        try:
            with open(self.digest_file) as f:
                return json.load(f)["digests"].get(str(self.seed))
        except FileNotFoundError:
            return None

    @staticmethod
    def digest(lines: list) -> str:
        return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()

    def work(self, batch: Batch, lines: list) -> int:
        """Output terms printed by the batch."""
        return sum(_line_terms(line) for line in lines)

    def verify(self, batch: Batch, lines: list, code: int) -> int:
        key = (self.digest(lines), code)
        if key not in self._verified:
            self._verified[key] = self.check_output(lines, code)
        return self._verified[key]

    def check_output(self, lines: list, code: int, check_digest: bool = True) -> int:
        ops = len(self.script())
        if len(lines) != ops:
            return ops
        failed = 0
        try:
            x, y, z = (reference.parse(line) for line in lines[:3])
        except ValueError:
            return ops
        failed += sum(reference.canonical(e) != line for e, line in zip((x, y, z), lines))
        expected = (reference.mul(x, y), reference.mul(reference.add(x, y), z))
        failed += sum(reference.canonical(e) != line for e, line in zip(expected, lines[3:5]))
        failed += sum(line != "true" for line in lines[5:])
        recorded = self.recorded_digest() if check_digest else None
        if recorded is not None and recorded != self.digest(lines):
            failed += 1
        if code != 0:
            failed += 1
        return min(ops, failed)


_BULK_ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz") + tuple(f"x{i}" for i in range(10)) + (
    "foo", "bar_2", "Zeta", "_u",
)


class ParseBulk(Workload):
    """``aaa parse --roundtrip`` over lines of about 600 rational terms."""

    name = "parse_bulk"
    noop = Batch(["parse", "--roundtrip"], work=0, ops=0)
    draws = 600
    lines_per_batch = 120
    chunks = 4

    def __init__(self, seed: int):
        self.seed = seed
        self._chunks = [self._chunk(c) for c in range(self.chunks)]

    def _element(self, rng: random.Random) -> list:
        terms = []
        for _ in range(self.draws):
            degree = rng.choices((1, 2, 3), weights=(1, 3, 6))[0]
            key = tuple(rng.choice(_BULK_ALPHABET) for _ in range(degree))
            terms.append((key, _rational(rng)))
        return terms

    def _noncanonical(self, rng: random.Random, element: dict) -> str:
        """A line with the element's value that is not its canonical text."""
        terms = list(element.items())
        pieces = []
        for key, coeff in terms:
            r = rng.random()
            if r < 0.1:
                part = _rational(rng)
                pieces += [(key, part), (key, coeff - part)]
            elif r < 0.15:
                scale = rng.randint(2, 4)
                sign = "-" if coeff < 0 else "+"
                mag = abs(coeff)
                pieces.append(f"{sign}{mag.numerator * scale}/{mag.denominator * scale}"
                              f"{reference.key_text(key)}")
            else:
                pieces.append((key, coeff))
        for _ in range(rng.randint(1, 5)):
            key = tuple(rng.choice(_BULK_ALPHABET) for _ in range(rng.randint(1, 3)))
            q = _rational(rng)
            pieces += [(key, q), (key, -q)]
        if rng.random() < 0.7:
            rng.shuffle(pieces)
        texts = [p if isinstance(p, str) else reference.term_text(*p) for p in pieces]
        line = texts[0]
        for t in texts[1:]:
            line += " " * (1 if rng.random() < 0.8 else rng.randint(2, 4)) + t
        if rng.random() < 0.3:
            line = "  " + line + " "
        return line

    def _chunk(self, c: int) -> dict:
        rng = random.Random(self.seed * 1_000_003 + c)
        sent, expected = [], []
        mixed = c % self.chunks != 0  # one chunk in four is canonical throughout
        for _ in range(self.lines_per_batch):
            element = reference.accumulate(self._element(rng))
            canon = reference.canonical(element)
            line = canon
            if mixed and rng.random() < 0.5:
                line = self._noncanonical(rng, element)
                if line == canon:
                    line += " "
            sent.append(line)
            expected.append(canon)
        return {
            "stdin": "".join(line + "\n" for line in sent),
            "expected": expected,
            "code": int(any(s != e for s, e in zip(sent, expected))),
            "terms": sum(_line_terms(line) for line in expected),
        }

    def batch(self, index: int) -> Batch:
        chunk = self._chunks[index % self.chunks]
        return Batch(["parse", "--roundtrip"], work=chunk["terms"], ops=self.lines_per_batch,
                     stdin=chunk["stdin"], expect=chunk)

    def verify(self, batch: Batch, lines: list, code: int) -> int:
        expected = batch.expect["expected"]
        failed = max(0, len(expected) - len(lines))
        failed += sum(a != b for a, b in zip(lines, expected))
        failed += len(lines) > len(expected) or code != batch.expect["code"]
        return min(len(expected), failed)


WORKLOADS = {w.name: w for w in (Check, ReplSmall, EvalLarge, ParseBulk)}

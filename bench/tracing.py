"""The traced run: per-layer self time and counts, measured in-process.

The benchmark imports ``antiassoc`` from the checkout and replaces each
public entry point with a wrapper at every name its callers look it up by
(a module global such as ``exprlang.mul``, or ``AaaElement.__init__`` for
construction).  A wrapper records a span ``[layer, start, end, parent,
counts]``.  Spans stay in memory and are written out when the run ends.
Nothing under ``src/`` changes.

A layer's ``.ms``/``.self_ms`` is its self time: the time inside its spans
minus the time inside the wrapped calls they make.  ``.calls`` counts
entries into a layer from outside it, so ``sub`` calling ``add`` and ``neg``
is one ``core.linear`` call.  The self times of all layers add up to the
traced wall time, because ``cli.main`` is the root of every span.
"""

from __future__ import annotations

import inspect
import io
import statistics
import sys
import time
from contextlib import contextmanager


def _terms(e) -> int:
    return len(e.singles) + len(e.doubles) + len(e.triples)


def _mul_counts(args, result):
    ctx, a, b = args
    pairs = len(a.singles) * len(b.singles) + len(a.doubles) * len(b.singles)
    if ctx.k:
        pairs += len(a.singles) * len(b.doubles)
    return {"pairs": pairs, "out_terms": _terms(result)}


def _suite_counts(args, result):
    return {"trials": sum(r.passed + (r.counterexample is not None) for r in result)}


# (layer, module, attribute, counter(args, result) -> dict)
def _targets(modules: dict) -> list:
    core, access = modules["core"], modules["access"]
    targets = [
        ("core.mul", core, "mul", _mul_counts),
        ("rng.raaa", modules["rng"], "raaa", lambda a, r: {"terms": _terms(r)}),
        ("oracle.naive_mul", modules["_oracle"], "naive_mul", None),
        ("checks", modules["checks"], "run_suite", _suite_counts),
        ("textio.parse", modules["textio"], "parse",
         lambda a, r: {"bytes": len(a[0]), "terms": _terms(r)}),
        ("textio.serialize", modules["textio"], "serialize", lambda a, r: {"bytes": len(r)}),
        ("exprlang.tokenize", modules["exprlang"], "tokenize", lambda a, r: {"tokens": len(r)}),
        ("exprlang.parse_program", modules["exprlang"], "parse_program",
         lambda a, r: {"statements": len(r)}),
        ("exprlang.eval", modules["exprlang"], "run_program", None),
        ("cli.main", modules["cli"], "main", None),
    ]
    targets += [("core.linear", core, name, None) for name in ("add", "sub", "neg", "scalar_mul")]
    targets += [
        ("access", access, name, None)
        for name in access.__all__
        if inspect.isfunction(getattr(access, name))
    ]
    return targets


class Tracer:
    """Span recorder for one in-process run of the program."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self._stack: list = []

    def wrap(self, layer: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target at each ``antiassoc`` global bound to it."""
        patches = []  # (owner, attribute, original)
        packages = [m for n, m in sys.modules.items() if n == "antiassoc" or n.startswith("antiassoc.")]
        for layer, module, attr, counter in _targets(self.modules):
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original, counter)
            for mod in packages:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, name, original))
                        setattr(mod, name, wrapper)
        element = self.modules["core"].AaaElement
        init = element.__init__
        traced_init = self.wrap("core.construct", init, lambda a, r: {"terms": _terms(a[0])})
        patches.append((element, "__init__", init))
        element.__init__ = traced_init
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)
            self._stack.clear()

    def layers(self) -> dict:
        """Per-layer ``calls``, self ``ms`` and summed counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, counts) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0})
            entry["ms"] += (end - start - child_time[i]) * 1e3
            if parent < 0 or spans[parent][0] != name:
                entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "fields": ["name", "start_us", "end_us", "parent"],
            "spans": [
                [index[n], round((s - t0) * 1e6, 2), round((e - t0) * 1e6, 2), p]
                for n, s, e, p, _ in self.spans
            ],
        }


def run_in_process(main, batch) -> tuple:
    """Run ``main(batch.argv)`` on the batch's input; (lines, code, seconds)."""
    if batch.statements is not None:
        text = "".join(s + "\n" for s in batch.statements)
    else:
        text = batch.stdin
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    start = time.perf_counter()
    try:
        code = main(batch.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    if err.getvalue():
        print(err.getvalue()[:2000], file=sys.stderr, end="")
    return out.getvalue().splitlines(), code, elapsed


# Per-layer metric -> (layer, field); ``ms`` fields are self time.
LAYER_METRICS = {
    "core.construct.calls": ("core.construct", "calls"),
    "core.construct.ms": ("core.construct", "ms"),
    "core.construct.terms": ("core.construct", "terms"),
    "core.mul.calls": ("core.mul", "calls"),
    "core.mul.self_ms": ("core.mul", "ms"),
    "core.mul.pairs": ("core.mul", "pairs"),
    "core.mul.out_terms": ("core.mul", "out_terms"),
    "core.linear.calls": ("core.linear", "calls"),
    "core.linear.ms": ("core.linear", "ms"),
    "rng.raaa.calls": ("rng.raaa", "calls"),
    "rng.raaa.ms": ("rng.raaa", "ms"),
    "rng.raaa.terms": ("rng.raaa", "terms"),
    "oracle.naive_mul.calls": ("oracle.naive_mul", "calls"),
    "oracle.naive_mul.ms": ("oracle.naive_mul", "ms"),
    "checks.trials": ("checks", "trials"),
    "checks.self_ms": ("checks", "ms"),
    "textio.parse.calls": ("textio.parse", "calls"),
    "textio.parse.ms": ("textio.parse", "ms"),
    "textio.parse.bytes": ("textio.parse", "bytes"),
    "textio.parse.terms": ("textio.parse", "terms"),
    "textio.serialize.calls": ("textio.serialize", "calls"),
    "textio.serialize.ms": ("textio.serialize", "ms"),
    "textio.serialize.bytes": ("textio.serialize", "bytes"),
    "exprlang.tokenize.ms": ("exprlang.tokenize", "ms"),
    "exprlang.tokenize.tokens": ("exprlang.tokenize", "tokens"),
    "exprlang.parse_program.ms": ("exprlang.parse_program", "ms"),
    "exprlang.parse_program.statements": ("exprlang.parse_program", "statements"),
    "exprlang.eval.self_ms": ("exprlang.eval", "ms"),
    "access.calls": ("access", "calls"),
    "access.ms": ("access", "ms"),
    "cli.main.self_ms": ("cli.main", "ms"),
}


def layer_metrics(layers: dict) -> dict:
    values = {
        metric: layers.get(layer, {}).get(field, 0)
        for metric, (layer, field) in LAYER_METRICS.items()
    }
    pairs = values["core.mul.pairs"]
    values["core.mul.yield"] = values["core.mul.out_terms"] / pairs if pairs else 0.0
    return values


def is_time(name: str) -> bool:
    return name.endswith((".ms", "_ms"))


def median_metrics(runs: list) -> dict:
    """Counts come from the first traced run; times are medians over all."""
    first = runs[0]
    return {
        name: statistics.median(r[name] for r in runs) if is_time(name) else first[name]
        for name in first
    }

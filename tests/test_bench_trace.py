"""The benchmark's traced run can still wrap the program.

``bench/tracing.py`` replaces named entry points of ``antiassoc`` (such as
``checks.run_suite``, ``_oracle.naive_mul``, ``core.add``/``sub``/``neg``/
``scalar_mul``/``mul`` and each ``access`` function) and reads ``run_suite``'s
reports.  Installing its tracer fails on a name the program no longer has, so
these tests keep a renamed entry point from breaking ``bench/run.py --trace 1``
unnoticed, and a caller that bound an entry point at import from going
uncounted.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_a_traced_check_run_counts_its_layers(monkeypatch):
    monkeypatch.setattr(sys, "path", [BENCH, *sys.path])  # undoes import_program's insert too
    import run
    import tracing

    modules = run.import_program()
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        reports = modules["checks"].run_suite(trials=1)
    assert all(report.ok for report in reports)
    metrics = tracing.layer_metrics(tracer.layers())
    assert metrics["checks.trials"] == 7
    assert metrics["rng.raaa.calls"] == 17  # 3 + 2 + 3 + 4 + 3 + 2 + 0 per trial
    assert metrics["oracle.naive_mul.calls"] == 1
    assert metrics["core.mul.calls"] > 0 and metrics["core.linear.calls"] > 0
    assert metrics["textio.parse.calls"] == 1


def test_a_traced_line_counts_each_builtin_call(monkeypatch):
    # A builtin that bound its access function at import would run unwrapped.
    monkeypatch.setattr(sys, "path", [BENCH, *sys.path])
    import run
    import tracing

    modules = run.import_program()
    exprlang = modules["exprlang"]
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        exprlang.run_program(
            "sym a b; let x = a + a*b; single(x); double(x); triple(x); set_single(x, 0); "
            "set_double(x, 0); set_triple(x, 0); extract(x, s1=a); replace(x, 2, s1=b); raaa(1)",
            exprlang.Env(),
        )
    metrics = tracing.layer_metrics(tracer.layers())
    assert metrics["access.calls"] == 8
    assert metrics["rng.raaa.calls"] == 1


def test_a_traced_long_line_counts_its_tokens_and_statements(monkeypatch):
    # parse_program must call tokenize through the module global, or the tracer misses it.
    monkeypatch.setattr(sys, "path", [BENCH, *sys.path])
    import run
    import tracing

    modules = run.import_program()
    exprlang = modules["exprlang"]
    src = "sym a b c; let v = " + " + ".join(["a", "2*b", "-(c - 3/2*a)", "a*b"] * 20) + "; v"
    tracer = tracing.Tracer(modules)
    with tracer.installed():
        exprlang.run_program(src, exprlang.Env())
    metrics = tracing.layer_metrics(tracer.layers())
    assert metrics["exprlang.tokenize.tokens"] == len(exprlang.tokenize(src))
    assert metrics["exprlang.parse_program.statements"] == 3

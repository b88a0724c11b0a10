"""The benchmark's traced run can still wrap the program.

``bench/tracing.py`` replaces named entry points of ``antiassoc`` (such as
``checks.run_suite``, ``_oracle.naive_mul`` and ``core.add``/``sub``/``neg``/
``scalar_mul``/``mul``) and reads ``run_suite``'s reports.  Installing its
tracer fails on a name the program no longer has, so this test keeps a
renamed entry point from breaking ``bench/run.py --trace 1`` unnoticed.
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

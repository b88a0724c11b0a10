"""Tests of the benchmark itself: inputs, output checks and the contract.

    python3 -m pytest -q bench/test_bench.py

The wrong outputs here are injected only in these tests, through a wrapper
that edits the program's standard output, never in the program.
"""

from __future__ import annotations

import json
import os
import sys
import textwrap

import pytest

import reference
import run
import tracing
from workloads import WORKLOADS, Check, EvalLarge, ParseBulk, ReplSmall

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    names = set(tracing.LAYER_METRICS) | {"core.mul.yield"}
    names |= {"trace.traced_ms", "trace.untraced_ms", "trace.overhead_ms"}
    assert per_layer == names
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    with open(os.path.join(run.BENCH, "layers.json")) as f:
        for layer in json.load(f).values():
            assert set(layer["metrics"]) <= per_layer
            for effects in (layer["moves"], layer.get("still", {})):
                assert set(effects) <= set(WORKLOADS)
                assert all(set(m) <= set(run.END_TO_END) for m in effects.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    cls = WORKLOADS[name]
    a, b, c = cls(3).batch(1), cls(3).batch(1), cls(4).batch(1)
    assert (a.argv, a.stdin, a.statements) == (b.argv, b.stdin, b.statements)
    assert (a.argv, a.stdin, a.statements) != (c.argv, c.stdin, c.statements)


def test_reference_canonical_form():
    text = "+1a -2b.foo +3/2(p.q)r"
    assert reference.canonical(reference.parse(text)) == text
    assert reference.canonical(reference.parse("+1b  +1a -1b +2/4a")) == "+3/2a"
    assert reference.canonical({}) == "0"


def test_parse_bulk_mixes_canonical_and_other_lines():
    workload = ParseBulk(5)
    codes = []
    for index in range(ParseBulk.chunks):
        batch = workload.batch(index)
        sent = batch.stdin.splitlines()
        expected = batch.expect["expected"]
        assert all(reference.canonical(reference.parse(s)) == e for s, e in zip(sent, expected))
        assert batch.expect["code"] == int(sent != expected)
        codes.append(batch.expect["code"])
    assert 0 in codes and 1 in codes


def _good_check_output(batch):
    n = Check.trials
    return ([f"seed: {batch.expect['seed']}"] + [f"p{i}: {n}/{n}" for i in range(7)]
            + [f"7/7 properties passed ({n} trials each)"])


def test_check_verify_counts_wrong_outputs():
    workload = Check(1)
    batch = workload.batch(0)
    good = _good_check_output(batch)
    assert workload.verify(batch, good, 0) == 0
    bad = list(good)
    bad[3] = bad[3].replace(f"{Check.trials}/", f"{Check.trials - 1}/")
    assert workload.verify(batch, bad, 1) == 1
    assert workload.verify(batch, good, 1) == 1
    assert workload.verify(batch, good[:-1], 0) == 1


def test_repl_verify_counts_wrong_outputs():
    workload = ReplSmall(1)
    batch = workload.batch(0)
    laws = batch.expect["laws"]
    good = ["true" if law else "+1a" for law in laws]
    assert workload.verify(batch, good, 0) == 0
    first_law = laws.index(True)
    bad = list(good)
    bad[first_law] = "false"
    bad[0] = "+1a +2a"
    assert workload.verify(batch, bad, 0) == 2
    assert workload.verify(batch, good[:-5], 0) == 5


def test_eval_large_verify_recomputes_products():
    workload = EvalLarge(1)
    x = {("a",): 1, ("a", "b"): 2}
    y = {("b",): 3, ("c",): -1}
    z = {("c",): 1}
    lines = [reference.canonical(e) for e in (x, y, z)]
    lines += [reference.canonical(reference.mul(x, y)),
              reference.canonical(reference.mul(reference.add(x, y), z))]
    lines += ["true"] * 3
    assert workload.check_output(lines, 0, check_digest=False) == 0
    wrong = list(lines)
    wrong[3] = wrong[3].replace("+3", "+4", 1)
    assert workload.check_output(wrong, 0, check_digest=False) == 1
    wrong[7] = "false"
    assert workload.check_output(wrong, 0, check_digest=False) == 2


def test_eval_large_digests_are_recorded():
    with open(EvalLarge.digest_file) as f:
        digests = json.load(f)["digests"]
    assert len(digests) >= 100


CORRUPTING_WRAPPER = textwrap.dedent("""
    import runpy, sys
    old, new = sys.argv.pop(1), sys.argv.pop(1)

    class Corrupt:
        def __init__(self, stream):
            self.stream, self.done = stream, False
        def write(self, text):
            if not self.done and old in text:
                text, self.done = text.replace(old, new, 1), True
            return self.stream.write(text)
        def __getattr__(self, name):
            return getattr(self.stream, name)

    sys.stdout = Corrupt(sys.stdout)
    sys.argv[0] = "antiassoc"
    runpy.run_module("antiassoc", run_name="__main__")
""")


@pytest.mark.parametrize("name,old,new", [
    ("check", "distributivity: 25/25", "distributivity: 24/25"),
    ("parse_bulk", "+", "-"),
])
def test_injected_wrong_output_gives_nonzero_error_rate(tmp_path, monkeypatch, name, old, new):
    wrapper = tmp_path / "corrupt.py"
    wrapper.write_text(CORRUPTING_WRAPPER)
    monkeypatch.setattr(run, "child_argv",
                        lambda args: [sys.executable, "-u", str(wrapper), old, new, *args])
    result = run.run_workload(name, seed=1, seconds=0, trace_on=False)
    assert result["failed"] > 0 and result["error_rate"] > 0
    monkeypatch.undo()
    clean = run.run_workload(name, seed=1, seconds=0, trace_on=False)
    assert clean["failed"] == 0 and set(clean["metrics"]) == set(run.END_TO_END)


def test_traced_run_reports_every_layer_metric():
    result = run.run_workload("check", seed=1, seconds=0, trace_on=True)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["checks.trials"] == 7 * Check.trials
    assert result["metrics"]["oracle.naive_mul.calls"] == Check.trials
    assert result["metrics"]["exprlang.tokenize.tokens"] == 0


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "check", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""

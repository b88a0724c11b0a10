"""The antiassoc benchmark: end-to-end metrics, or per-layer ones with --trace 1.

    python3 bench/run.py --workload check --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout.  With ``--trace 0`` every batch runs as a
child ``python -u -m antiassoc`` with the checkout's ``src`` on PYTHONPATH,
one child at a time, and the end-to-end metrics are measured from outside.
With ``--trace 1`` the same batches run in-process, with the public entry
points of each module wrapped (see ``tracing.py``).  Either way every output
is checked.  The last line of standard output is the result as JSON; the
details, with metadata and the recorded spans, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_BATCHES = 7
PROBE_REF_S = 0.04
NPROC = len(os.sched_getaffinity(0))  # as `nproc` reports it, before main() pins one CPU

# name -> unit; every workload reports all of them (BENCHMARK.json lists bounds).
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "reply_p50_ms": "ms",
    "reply_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ProgramError(Exception):
    """The program cannot be started from this checkout."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("AAA_SEED", None)
    return env


def child_argv(args: list) -> list:
    return [sys.executable, "-u", "-m", "antiassoc", *args]


class ChildRun:
    """One child's output lines, their arrival times and its exit status."""

    def __init__(self, header: dict, out: bytes):
        self.lines = out.decode().split("\n") if header["stamps"] else []
        self.stamps = header["stamps"]  # seconds after the spawn
        self.latencies = header["latencies"]
        self.code = header["code"]
        self.rss_kb = header["rss_kb"]
        self.exited = header["exited"]
        self.timed_out = header["timed_out"]


class Launcher:
    """Client of ``launcher.py``, which spawns and times every child."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)

    def run(self, args: list, stdin_path=None, statements=None) -> ChildRun:
        request = {"argv": child_argv(args), "stdin_path": stdin_path, "statements": statements}
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise ProgramError("the launcher exited")
        header = json.loads(line)
        run = ChildRun(header, self.proc.stdout.read(header["nbytes"]))
        if header["stderr"]:
            print(f"child {args[0]} stderr: {header['stderr']}", file=sys.stderr)
        return run

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def noop_seconds(launcher: Launcher, workload) -> float:
    """Wall time of one no-op run of the workload's subcommand."""
    run = launcher.run(workload.noop.argv)
    if run.code != 0:
        raise ProgramError(f"no-op '{' '.join(workload.noop.argv)}' exited with {run.code}")
    return run.exited


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The machine's speed drifts by a quarter or more over tens of seconds
    when neighbours load it, and the program slows with it.  The probe is
    benchmark code that no change to the program can touch, so the ratio
    of a batch's time to the probe time around it keeps what the program
    changes and drops most of what the machine does.  Its work resembles
    the program's: small-key dict updates, then a table of 12,000 term-like
    keys sorted and joined into one long line.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(25_000):
        key = (i % 251, i % 7)
        counts[key] = counts.get(key, 0) + i * 3 // 7
    table: dict = {}
    for i in range(12_000):
        key = (f"p{i % 40}", f"p{i * 7 % 41}", f"p{i * 13 % 43}")
        table[key] = table.get(key, 0) + i * 3 // 7
    " ".join(f"+{v}({a}.{b}){c}" for (a, b, c), v in sorted(table.items()))
    return time.perf_counter() - start


def percentile(values: list, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_end_to_end(workload, seconds: float) -> dict:
    """Batches, each after a no-op run, for ``seconds``; times at probe speed.

    Every time is multiplied by ``PROBE_REF_S`` over the mean of the speed
    probes taken just before the no-op run and just after the batch, so it
    reads as seconds on a machine where the probe takes ``PROBE_REF_S``.
    The details file keeps the unscaled medians too.
    """
    launcher = Launcher()
    stdin_path = os.path.join(OUT, f"stdin-{os.getpid()}.txt")
    setups, verdicts, latencies, rates, rss, probes = [], [], [], [], [], []
    raw_setups, raw_verdicts = [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    try:
        noop_seconds(launcher, workload)  # warm-up: the first run compiles the package
        while index < MIN_BATCHES or time.perf_counter() - start < seconds:
            batch = workload.batch(index)
            index += 1
            before = speed_probe()
            setup = noop_seconds(launcher, workload)
            if batch.statements is None:
                with open(stdin_path, "w") as f:
                    f.write(batch.stdin)
                run = launcher.run(batch.argv, stdin_path=stdin_path)
                batch_latencies = workload.latencies(run.stamps)
            else:
                run = launcher.run(batch.argv, statements=batch.statements)
                batch_latencies = run.latencies
            probe = (before + speed_probe()) / 2
            scale = PROBE_REF_S / probe
            bad = batch.ops if run.timed_out else workload.verify(batch, run.lines, run.code)
            attempted += batch.ops
            failed += bad
            probes.append(probe)
            raw_setups.append(setup)
            setups.append(setup * scale)
            if bad or not run.stamps:
                continue
            raw_verdicts.append(run.stamps[-1])
            verdicts.append(raw_verdicts[-1] * scale)
            latencies.extend(t * scale for t in batch_latencies)
            rss.append(run.rss_kb / 1024)
            rates.append(workload.work(batch, run.lines) / verdicts[-1])
    finally:
        launcher.close()
        if os.path.exists(stdin_path):
            os.unlink(stdin_path)
    metrics = {}
    if verdicts:
        metrics = {
            "setup_s": statistics.median(setups),
            "verdict_s": statistics.median(verdicts),
            "reply_p50_ms": percentile(latencies, 50) * 1e3,
            "reply_p90_ms": percentile(latencies, 90) * 1e3,
            "work_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
    samples = {"batches": index, "ok_batches": len(verdicts), "replies": len(latencies),
               "reply_p99_ms": percentile(latencies, 99) * 1e3 if latencies else None}
    raw = {"probe_s": statistics.median(probes), "setup_s": statistics.median(raw_setups),
           "verdict_s": statistics.median(raw_verdicts) if raw_verdicts else None}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": END_TO_END, "samples": samples, "unscaled": raw}


def import_program() -> dict:
    sys.path.insert(0, SRC)
    import antiassoc
    from antiassoc import _oracle, access, checks, cli, core, exprlang, rng, textio

    if not os.path.abspath(antiassoc.__file__).startswith(SRC + os.sep):
        raise ProgramError(f"antiassoc imported from {antiassoc.__file__}, not from {SRC}")
    return {"core": core, "access": access, "textio": textio, "rng": rng,
            "exprlang": exprlang, "cli": cli, "checks": checks, "_oracle": _oracle}


def run_traced(workload, seconds: float, spans_path: str) -> dict:
    """Pairs of untraced and traced in-process runs of batch 0, for ``seconds``."""
    modules = import_program()
    cli = modules["cli"]
    batch = workload.batch(0)
    traced, untraced, layer_runs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(traced) < MIN_BATCHES or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer(modules)
        # Alternate which run of the pair goes first, so warm-up favours neither.
        for traced_run in (True, False) if len(traced) % 2 else (False, True):
            if traced_run:
                with tracer.installed():
                    lines, code, elapsed = tracing.run_in_process(cli.main, batch)
                traced.append(elapsed)
            else:
                lines, code, elapsed = tracing.run_in_process(cli.main, batch)
                untraced.append(elapsed)
            attempted += batch.ops
            failed += workload.verify(batch, lines, code)
        layer_runs.append(tracing.layer_metrics(tracer.layers()))
        if len(traced) == 1:
            with open(spans_path, "w") as f:
                json.dump(tracer.dump(), f)
    metrics = tracing.median_metrics(layer_runs)
    metrics["trace.traced_ms"] = statistics.median(traced) * 1e3
    metrics["trace.untraced_ms"] = statistics.median(untraced) * 1e3
    metrics["trace.overhead_ms"] = metrics["trace.traced_ms"] - metrics["trace.untraced_ms"]
    units = {name: _layer_unit(name) for name in metrics}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": units,
            "samples": {"pairs": len(traced), "spans": spans_path}}


def _layer_unit(name: str) -> str:
    if tracing.is_time(name):
        return "ms"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def metadata() -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "antiassoc")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    src_lines += sum(1 for _ in f)
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    with open(os.path.join(BENCH, "layers.json")) as f:
        layer_map = json.load(f)
    return {"python": platform.python_version(), "git_sha": sha, "nproc": NPROC,
            "src_lines": src_lines, "layer_map": layer_map}


def run_workload(name: str, seed: int, seconds: float, trace_on: bool) -> dict:
    workload = WORKLOADS[name](seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace_on)}"
    if trace_on:
        result = run_traced(workload, seconds, os.path.join(OUT, f"spans-{tag}.json"))
    else:
        result = run_end_to_end(workload, seconds)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace_on))
    result["error_rate"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(dict(result, metadata=metadata()), f, indent=1)
    return result


def contract_line(result: dict) -> str:
    metrics = {
        name: {"value": value, "unit": result["units"][name]}
        for name, value in result["metrics"].items()
    }
    return json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_summary(result: dict) -> None:
    print(f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{json.dumps(result['samples'])}")
    for name, value in result["metrics"].items():
        print(f"  {name:38s} {value:14.4f} {result['units'][name]}")
    print(f"  {'error_rate':38s} {result['error_rate']:14.4f} "
          f"({result['failed']}/{result['attempted']})")
    if "unscaled" in result:
        print(f"  unscaled medians: {json.dumps(result['unscaled'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "antiassoc", "__init__.py")):
        print(f"no program to benchmark: {SRC}/antiassoc is missing", file=sys.stderr)
        return 2
    # The benchmark and its children share one CPU, so the speed probe times
    # the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except ProgramError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    for result in results:
        print_summary(result)
    if len(results) == 1:
        print(contract_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(contract_line(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

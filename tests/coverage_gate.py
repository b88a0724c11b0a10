"""Line coverage of ``src/antiassoc`` over the Tier-1 suite, child processes included.

Run it from the root of a checkout (stdlib only)::

    python tests/coverage_gate.py

It runs the Tier-1 suite in a child whose ``PYTHONPATH`` starts with a temporary
directory holding a ``sitecustomize.py``.  That file starts :func:`start` in every
Python process the suite runs, the suite's own included, so each one traces the
package's frames with ``sys.settrace`` and writes the lines it ran to
``<pid>.json`` as it exits.  The executable lines of a file are those that its
code objects' ``co_lines()`` name.  The gate exits 1 when any of them went unrun,
with no exceptions, and with the suite's status when the suite fails.
"""

import atexit
import os
import sys
import threading

# Every traced process loads this module, so the imports that only ``main``
# and ``_write`` need are made there: a traced child loads few extra modules.

_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "antiassoc")
_PREFIX = _PACKAGE + os.sep
_RAN: set = set()
_SITE = """import importlib.util
spec = importlib.util.spec_from_file_location("coverage_gate", {gate!r})
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)
gate.start({out!r})
"""


# The trace functions are module-level and close over nothing, so tracing adds
# no reference cycle for the suite's garbage checks to see.
def _trace_calls(frame, event, arg):
    """Trace the lines of the package's frames, and of no other frame."""
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _trace_lines
    return None


def _trace_lines(frame, event, arg):
    if event == "line":
        _RAN.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def start(out_dir: str) -> None:
    """Trace this process from now on, and write ``<out_dir>/<pid>.json`` at exit."""
    atexit.register(_write, out_dir)
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def _write(out_dir: str) -> None:
    import json

    sys.settrace(None)
    ran: dict = {}
    for name, line in _RAN:
        ran.setdefault(os.path.relpath(name, _PACKAGE), []).append(line)
    with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as out:
        json.dump(ran, out)


def _executable_lines(path) -> set:
    """The lines that the code objects compiled from ``path`` name in ``co_lines()``."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def unrun(ran: set, paths) -> tuple:
    """How many executable lines the files at ``paths`` hold, and each one whose
    ``(file name, line)`` is not in ``ran``, as ``(file name, line, text)``."""
    missed, total = [], 0
    for path in sorted(paths):
        lines = _executable_lines(path)
        total += len(lines)
        text = path.read_text().splitlines()
        missed += [(path.name, n, text[n - 1].strip()) for n in sorted(lines) if (path.name, n) not in ran]
    return total, missed


def main() -> int:
    import json
    import subprocess
    import tempfile
    from pathlib import Path

    root = Path(_PACKAGE).parent.parent
    with tempfile.TemporaryDirectory() as out:
        Path(out, "sitecustomize.py").write_text(_SITE.format(gate=os.path.abspath(__file__), out=out))
        paths = [out, str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        status = subprocess.run(command, cwd=root, env=env).returncode
        ran: set = set()
        reports = list(Path(out).glob("*.json"))
        for report in reports:
            ran.update((name, line) for name, lines in json.loads(report.read_text()).items() for line in lines)
    total, missed = unrun(ran, Path(_PACKAGE).glob("*.py"))
    print(f"coverage: {total - len(missed)} of {total} executable lines ran, in {len(reports)} processes")
    for name, n, text in missed:
        print(f"UNRUN: {name}:{n}: {text}")
    return status or int(bool(missed))


if __name__ == "__main__":
    sys.exit(main())

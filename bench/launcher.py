"""Runs the benchmark's child processes and times their output lines.

    python3 bench/launcher.py      (started by run.py; reads requests on stdin)

Linux reports a child's peak RSS (``ru_maxrss`` from ``wait4``) as at
least the peak RSS of the process that spawned it, because the child
starts from the parent's memory.  The benchmark process holds generated
inputs and reference results, so its children would inherit its peak.
This launcher stays small and spawns the children instead, so their
``ru_maxrss`` is their own.

Each request is one JSON line: ``{"argv": [...], "stdin_path": str or
null, "statements": [...] or null}``.  With ``statements`` the child is
driven as a closed loop: each line is sent only after the reply to the
previous one has arrived.  Each response is one JSON line with the exit
code, ``rss_kb``, the times (seconds after the spawn) at which each output
line arrived and the closed-loop latencies, followed by the child's raw
standard output, ``nbytes`` long.
"""

from __future__ import annotations

import collections
import json
import os
import select
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 60.0


class LineReader:
    """Lines from a pipe, each stamped with the time its newline arrived."""

    def __init__(self, fd: int):
        self.fd = fd
        self.buf = b""
        self.ready: collections.deque = collections.deque()
        self.eof = False

    def next(self, deadline: float):
        """(line, stamp), or None at end of file; TimeoutError past deadline."""
        while not self.ready:
            if self.eof:
                return None
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError
            if not select.select([self.fd], [], [], remaining)[0]:
                continue
            chunk = os.read(self.fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                self.eof = True
                if self.buf:
                    self.ready.append((self.buf, now))
                continue
            *done, self.buf = (self.buf + chunk).split(b"\n")
            self.ready.extend((line, now) for line in done)
        return self.ready.popleft()


def run_child(argv: list, stdin_path=None, statements=None) -> tuple:
    """Run one child to completion and reap it; (header dict, stdout bytes)."""
    lines, stamps, latencies = [], [], []
    timed_out = False
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    closed_loop = statements is not None
    stdin = subprocess.PIPE if closed_loop else open(stdin_path or os.devnull, "rb")
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finished = False
    try:
        reader = LineReader(proc.stdout.fileno())
        if closed_loop:
            for stmt in statements:
                sent = time.perf_counter()
                os.write(proc.stdin.fileno(), (stmt + "\n").encode())
                got = reader.next(deadline)
                if got is None:
                    break
                lines.append(got[0])
                stamps.append(got[1] - spawned)
                latencies.append(got[1] - sent)
            proc.stdin.close()
        while (got := reader.next(deadline)) is not None:
            lines.append(got[0])
            stamps.append(got[1] - spawned)
        finished = True
    except TimeoutError:
        timed_out = True
    except BrokenPipeError:
        pass  # the child exited early; its output so far is checked
    finally:
        if not finished:
            proc.kill()
        if not closed_loop:
            stdin.close()
        elif not proc.stdin.closed:
            proc.stdin.close()
        # A child that fills the stderr pipe would block; the workloads
        # write nothing there unless something is wrong.
        stderr = proc.stderr.read(4096) if finished else b""
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.perf_counter() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    out = b"\n".join(lines)
    header = {
        "code": proc.returncode, "rss_kb": usage.ru_maxrss, "exited": exited,
        "stamps": stamps, "latencies": latencies, "timed_out": timed_out,
        "stderr": stderr.decode(errors="replace"), "nbytes": len(out),
    }
    return header, out


def main() -> int:
    for request in sys.stdin.buffer:
        req = json.loads(request)
        header, out = run_child(req["argv"], req.get("stdin_path"), req.get("statements"))
        sys.stdout.buffer.write(json.dumps(header).encode() + b"\n" + out)
        sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

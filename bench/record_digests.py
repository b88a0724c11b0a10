"""Record the sha256 of ``eval_large``'s output for a range of seeds.

    python3 bench/record_digests.py 0 200

The benchmark compares each ``eval_large`` output with the digest recorded
here for its seed, so any byte of the output that changes is caught, not
only the products the reference recomputes.  An output is recorded only
after it passes the reference check.  Record once, at the commit whose
output is the standard; re-recording later would hide a change.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import EvalLarge


def main(argv: list) -> int:
    first, stop = int(argv[0]), int(argv[1])
    os.makedirs(run.OUT, exist_ok=True)
    stdin_path = os.path.join(run.OUT, f"record-{os.getpid()}.txt")
    digests = {}
    launcher = run.Launcher()
    try:
        for seed in range(first, stop):
            workload = EvalLarge(seed)
            batch = workload.batch(0)
            with open(stdin_path, "w") as f:
                f.write(batch.stdin)
            child = launcher.run(batch.argv, stdin_path=stdin_path)
            if workload.check_output(child.lines, child.code, check_digest=False):
                print(f"seed {seed}: output fails the reference check", file=sys.stderr)
                return 1
            digests[str(seed)] = workload.digest(child.lines)
    finally:
        launcher.close()
        if os.path.exists(stdin_path):
            os.unlink(stdin_path)
    with open(EvalLarge.digest_file, "w") as f:
        json.dump({"python": sys.version.split()[0], "digests": digests}, f, indent=0)
        f.write("\n")
    print(f"recorded {len(digests)} digests in {EvalLarge.digest_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Guard: ``qpt qgt`` evaluates its grid chunk by chunk, on success and on
refusal, so its peak memory does not grow with the grid.

Runs ``qpt qgt`` on the spin-10 ``orbit`` family at 4,096 and at 8,192
points, reads each run's own ``ru_maxrss`` from ``os.wait4`` and fails if
the larger grid's peak exceeds the smaller's by more than 10%.  Two cases:

- success: direction ``[0, 0, 1]``, pinned to one CPU (as ``taskset -c 0``
  would);
- refusal: direction ``[0, 0, 0]``, degenerate at every point, so the run
  exits 3; pinned to one CPU and unpinned, where the record worker and this
  process both fail and every chunk is evaluated again in grid order.

A whole-grid evaluation holds stacks of ``21 x 21`` matrices per point and
grows by about 60% (success) or 80% (refusal) here.

Usage: ``python tests/one_cpu_rss.py`` from the repository root.  The name
keeps pytest from collecting it.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GROWTH_BOUND = 1.10
CASES = [  # name, direction, exit code, pinned to one CPU
    ("success, one CPU", [0, 0, 1], 0, True),
    ("refusal, one CPU", [0, 0, 0], 3, True),
    ("refusal, unpinned", [0, 0, 0], 3, False),
]


def peak_rss_mib(work: Path, alpha_count: int, direction, expected: int, pinned: bool) -> float:
    """Own ``ru_maxrss`` of one ``qpt qgt`` run on ``alpha_count * 256`` points."""
    spec = {
        "mode": "qgt",
        "hamiltonian": {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 10}, "direction": direction},
        "grid": {"alpha": [0.0, 1.0, alpha_count], "beta": [0.3, 2.8, 16], "gamma": [0.3, 6.0, 16]},
    }
    path = work / f"spec{alpha_count}.json"
    path.write_text(json.dumps(spec))
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpt.cli", "qgt", "--spec", str(path), "--out", str(work / "out.jsonl")],
        env=env, stderr=subprocess.PIPE, preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait again
    err = proc.stderr.read().decode()  # one line at most, which the pipe holds
    proc.stderr.close()
    if proc.returncode != expected:
        sys.exit(f"qpt qgt exited {proc.returncode}, not {expected}, on {alpha_count * 256} points\n{err}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as work:
        for name, direction, expected, pinned in CASES:
            small, large = (peak_rss_mib(Path(work), n, direction, expected, pinned) for n in (16, 32))
            print(f"{name}: own ru_maxrss of qpt qgt, spin 10: {small:.1f} MiB at 4096 points, "
                  f"{large:.1f} MiB at 8192 points (ratio {large / small:.3f}, bound {GROWTH_BOUND})")
            failed |= large > GROWTH_BOUND * small
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

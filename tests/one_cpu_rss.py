"""Guard: ``qpt qgt`` and ``qpt group`` evaluate and write their grids chunk
by chunk, on success and on refusal, so their peak memory does not grow
with the grid beyond the point stack; and ``qpt group`` never forms the
rep's dense generator stack, so its peak does not grow with the spin.

Reads each run's own ``ru_maxrss`` from ``os.wait4``.  ``qpt qgt`` runs on
the spin-10 ``orbit`` family at 4,096 and at 8,192 points, and fails if the
larger grid's peak exceeds the smaller's by more than 10%.  Three cases:

- success: direction ``[0, 0, 1]``, pinned to one CPU (as ``taskset -c 0``
  would);
- refusal: direction ``[0, 0, 0]``, degenerate at every point, so the run
  exits 3; pinned to one CPU and unpinned, where this process refuses on the
  first chunk of its own half and the record worker, busy with the second
  half, is killed and reaped with its unnamed file.

A whole-grid evaluation holds stacks of ``21 x 21`` matrices per point and
grows by about 60% (success) or 80% (refusal) here.

``qpt group`` runs on spin 3/2 at 262,144 and at 524,288 points, pinned to
one CPU and unpinned, and fails if its peak grows by more than 64 bytes per
added point.  It runs twice: with a generic fiducial, and with the
highest-weight fiducial ``[1, 0, 0, 0]``, projective, in the left frame,
whose records repeat once per α slice, so the encoder's row memo fills.  The
``(P, 3)`` point stack and its build take about 48; holding every record's
columns until the output opens took about 168 (one CPU) or 101 (two).

``qpt verify`` on a ``heisenberg`` group target of 2 modes at cutoff 32
(1024 states) with the vacuum fiducial, pinned to one CPU and unpinned, fails
if its peak exceeds 60 MiB.  The rep's dense ``(4, 1024, 1024)`` stack alone
is 64 MiB; holding it took the peak to about 97 MiB, and applying the rep
from its nonzero entries keeps it at about 34.

``qpt group`` on spin 511.5 (1024 states) with the highest-weight fiducial
on 100 points, pinned to one CPU and unpinned, fails if its peak exceeds
48 MiB.  The rep's dense ``(3, 1024, 1024)`` stack alone is 48 MiB; forming
it took the peak to about 192 MiB, and applying the rep from its ``O(d)``
nonzero entries keeps it at about 33.

Usage: ``python tests/one_cpu_rss.py`` from the repository root.  The name
keeps pytest from collecting it.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GROWTH_BOUND = 1.10
QGT_CASES = [  # name, direction, exit code, pinned to one CPU
    ("success, one CPU", [0, 0, 1], 0, True),
    ("refusal, one CPU", [0, 0, 0], 3, True),
    ("refusal, unpinned", [0, 0, 0], 3, False),
]
GROUP_BYTES_PER_POINT = 64
CPU_CASES = [("one CPU", True), ("unpinned", False)]  # name, pinned to one CPU
VERIFY_BOUND_MIB = 60
VERIFY_SPEC = {
    "mode": "verify",
    "target": "group",
    "rep": {"builtin": "heisenberg", "modes": 2, "cutoff": 32},
    "fiducial": [[1, 0]] + [[0, 0]] * 1023,
    "grid": {"alpha": 0.0, "beta": [0.3, 2.8, 3], "gamma": [0.3, 6.0, 3]},
}
LARGE_SPIN_BOUND_MIB = 48
LARGE_SPIN_SPEC = {
    "mode": "group",
    "rep": {"builtin": "su2", "spin": 511.5},
    "fiducial": [[1, 0]] + [[0, 0]] * 1023,
    "grid": {"alpha": [0.0, 6.0, 4], "beta": [0.3, 2.8, 5], "gamma": [0.3, 6.0, 5]},
}
GROUP_FIELDS = {  # name -> the spec's fiducial fields
    "generic fiducial": {"fiducial": [[0.3, 0.1], [-0.2, 0.5], [0.7, -0.4], [0.1, 0.2]]},
    "repeating rows": {"fiducial": [[1, 0], [0, 0], [0, 0], [0, 0]], "projective": True, "frame": "left"},
}


def peak_rss_mib(work: Path, spec: dict, expected: int, pinned: bool, out: str) -> float:
    """Own ``ru_maxrss`` of one ``qpt`` run of ``spec`` with its output to ``out``."""
    path = work / "spec.json"
    path.write_text(json.dumps(spec))
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpt.cli", spec["mode"], "--spec", str(path), "--out", out],
        env=env, stderr=subprocess.PIPE, preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait again
    err = proc.stderr.read().decode()  # one line at most, which the pipe holds
    proc.stderr.close()
    if proc.returncode != expected:
        sys.exit(f"qpt {spec['mode']} exited {proc.returncode}, not {expected}, on {spec['grid']}\n{err}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def qgt_spec(alpha_count: int, direction) -> dict:
    """Spin-10 ``orbit`` family on ``alpha_count * 256`` points."""
    return {
        "mode": "qgt",
        "hamiltonian": {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 10}, "direction": direction},
        "grid": {"alpha": [0.0, 1.0, alpha_count], "beta": [0.3, 2.8, 16], "gamma": [0.3, 6.0, 16]},
    }


def group_spec(alpha_count: int, fields: dict) -> dict:
    """Spin 3/2 with the fiducial ``fields`` on ``alpha_count * 4096`` points."""
    return {
        "mode": "group",
        "rep": {"builtin": "su2", "spin": 1.5},
        **fields,
        "grid": {"alpha": [0.0, 6.0, alpha_count], "beta": [0.3, 2.8, 64], "gamma": [0.3, 6.0, 64]},
    }


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as work:
        for name, direction, expected, pinned in QGT_CASES:
            small, large = (peak_rss_mib(Path(work), qgt_spec(n, direction), expected, pinned,
                                         str(Path(work) / "out.jsonl")) for n in (16, 32))
            print(f"{name}: own ru_maxrss of qpt qgt, spin 10: {small:.1f} MiB at 4096 points, "
                  f"{large:.1f} MiB at 8192 points (ratio {large / small:.3f}, bound {GROWTH_BOUND})")
            failed |= large > GROWTH_BOUND * small
        for (name, pinned), (kind, fields) in itertools.product(CPU_CASES, GROUP_FIELDS.items()):
            small, large = (peak_rss_mib(Path(work), group_spec(n, fields), 0, pinned, os.devnull) for n in (64, 128))
            per_point = (large - small) * 2**20 / (64 * 4096)
            print(f"{name}, {kind}: own ru_maxrss of qpt group, spin 3/2: {small:.1f} MiB at 262144 points, "
                  f"{large:.1f} MiB at 524288 points ({per_point:.0f} bytes per added point, "
                  f"bound {GROUP_BYTES_PER_POINT})")
            failed |= per_point > GROUP_BYTES_PER_POINT
        for name, pinned in CPU_CASES:
            peak = peak_rss_mib(Path(work), VERIFY_SPEC, 0, pinned, os.devnull)
            print(f"{name}: own ru_maxrss of qpt verify on a heisenberg (2, 32) group target: "
                  f"{peak:.1f} MiB (bound {VERIFY_BOUND_MIB})")
            failed |= peak > VERIFY_BOUND_MIB
        for name, pinned in CPU_CASES:
            peak = peak_rss_mib(Path(work), LARGE_SPIN_SPEC, 0, pinned, os.devnull)
            print(f"{name}: own ru_maxrss of qpt group, spin 511.5: {peak:.1f} MiB (bound {LARGE_SPIN_BOUND_MIB})")
            failed |= peak > LARGE_SPIN_BOUND_MIB
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: the ``qpt`` commands each runs and their checks.

All three use the spin-3/2 SU(2) representation.  The group runs use the
highest-weight fiducial ``[1, 0, 0, 0]`` with the projective tensor, the
left-invariant frame and generator normalisation, so that their records are
the round sphere of ``closed_forms``.  The seed only picks the global phase of
that fiducial among 1, i, -1 and -i, which the projective tensor ignores:
every seed does the same work and has the same closed form.  The Weyl
workload has no input that a seed could vary.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import closed_forms

SPIN = 1.5
EULER_RANGES = {"alpha": (0.0, 12.0), "beta": (0.1, 3.0), "gamma": (0.0, 6.2)}
ORBIT_FAMILY = {
    "builtin": "orbit",
    "rep": {"builtin": "su2", "spin": SPIN},
    "direction": [0, 0, 1],
}
WEYL_MODES, WEYL_CUTOFF = 2, 32

@dataclass(frozen=True)
class Command:
    """One ``qpt`` invocation, the file it writes and how to check that file."""

    argv: list[str]
    out: Path
    check: Callable[[list[dict]], list[str]]  # parsed output -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[bool], str]  # tiny -> Python source timed in a fresh process
    setup_repeats: int  # fresh processes per run; set-up time is their median
    calibration: str  # the loop of ``calibration.LOOPS`` its times are scaled by
    commands: Callable[[Path, int, bool], list[Command]]  # (work dir, seed, tiny)


def euler_grid(counts) -> dict:
    return {name: [lo, hi, n] for (name, (lo, hi)), n in zip(EULER_RANGES.items(), counts)}


def _fiducial(seed: int) -> list[list[float]]:
    # A quarter-turn phase multiplies exactly, so the records, and the bytes
    # written, are the same for every seed; a generic phase would leave
    # rounding residue such as -2e-18 in place of 0.0 and lengthen the jsonl.
    phase = random.Random(seed).choice([[1, 0], [0, 1], [-1, 0], [0, -1]])
    return [phase, [0, 0], [0, 0], [0, 0]]


def _write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _group_command(work: Path, seed: int, grid: dict, name: str) -> Command:
    spec = {
        "mode": "group",
        "rep": {"builtin": "su2", "spin": SPIN},
        "fiducial": _fiducial(seed),
        "projective": True,
        "frame": "left",
        "normalization": "generator",
        "grid": grid,
    }
    out = work / f"{name}.jsonl"
    argv = ["group", "--spec", _write_spec(work / f"{name}.json", spec), "--out", str(out)]
    return Command(argv, out, lambda objs: closed_forms.check_group(objs, grid, SPIN))


def group_field(work: Path, seed: int, tiny: bool) -> list[Command]:
    grid = euler_grid((2, 5, 5) if tiny else (40, 50, 50))
    return [_group_command(work, seed, grid, "group")]


def orbit_crosscheck(work: Path, seed: int, tiny: bool) -> list[Command]:
    grid = euler_grid((2, 4, 4) if tiny else (4, 50, 50))
    qgt_spec = {"mode": "qgt", "hamiltonian": ORBIT_FAMILY, "grid": grid}
    qgt_out = work / "qgt.jsonl"
    qgt = Command(
        ["qgt", "--spec", _write_spec(work / "qgt.json", qgt_spec), "--out", str(qgt_out)],
        qgt_out,
        lambda objs: closed_forms.check_qgt(objs, grid, SPIN),
    )
    group = _group_command(work, seed, grid, "group")
    n_records = math.prod(n for _, _, n in grid.values())
    compare_out = work / "compare.jsonl"
    compare = Command(
        ["compare", str(qgt_out), str(group.out), "--tol", "1e-8", "--out", str(compare_out)],
        compare_out,
        lambda objs: closed_forms.check_compare(objs, n_records),
    )
    return [qgt, group, compare]


def weyl_flat(work: Path, seed: int, tiny: bool) -> list[Command]:
    modes, cutoff = (1, 8) if tiny else (WEYL_MODES, WEYL_CUTOFF)
    out = work / "weyl.jsonl"
    argv = ["weyl", "--modes", str(modes), "--cutoff", str(cutoff), "--out", str(out)]
    return [Command(argv, out, lambda objs: closed_forms.check_weyl(objs, modes))]


def _weyl_setup(tiny: bool) -> str:
    modes, cutoff = (1, 8) if tiny else (WEYL_MODES, WEYL_CUTOFF)
    return f"import qpt\nqpt.build_weyl({modes}, {cutoff})\nqpt.heisenberg_rep({modes}, {cutoff})\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "group_field",
            setup=lambda tiny: f"import qpt\nqpt.rep_from_spec({{'builtin': 'su2', 'spin': {SPIN}}})\n",
            setup_repeats=7,
            calibration="interpreter",
            commands=group_field,
        ),
        Workload(
            "orbit_crosscheck",
            setup=lambda tiny: f"import qpt\nqpt.ham_from_spec({ORBIT_FAMILY!r})\n",
            setup_repeats=7,
            calibration="interpreter",
            commands=orbit_crosscheck,
        ),
        Workload("weyl_flat", setup=_weyl_setup, setup_repeats=3, calibration="dense",
                 commands=weyl_flat),
    )
}


def qpt_argv(command: Command) -> list[str]:
    return [sys.executable, "-m", "qpt.cli", *command.argv]

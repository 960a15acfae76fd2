"""Output checks for the benchmark workloads, written without ``qpt``.

Every check compares what ``qpt`` wrote against a closed form from the
paper, never against a stored copy, and always with a tolerance: the last
digits of a Weyl report change with the BLAS thread count.

Round sphere.  The spin-``s`` orbit of the highest-weight state, in the
left-invariant coframe with generator normalisation, pulls back to

    metric   = diag((s/2) sin^2 beta, s/2, 0)      over (alpha, beta, gamma)
    two_form = (s/2) sin beta  d alpha ^ d beta

and the spectral tensor of the conjugated family ``U (-R_3) U^dag`` has
``Re h`` equal to that metric, ``Im h`` equal to that two-form and a gap of 2.

Flat tensor.  The vacuum of a Weyl system on ``n`` modes gives
``(1/2) I`` and ``(1/2) omega`` over ``(Q_1..Q_n, P_1..P_n)``.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math

import numpy as np

RECORD_TOL = 1e-12
FLAT_TOL = 1e-13
COMPARE_TOL = 1e-8
GAP = 2.0
WEYL_CHECKS = (
    "re-part-half-identity",
    "im-part-half-omega",
    "projective-equals-linear",
    "vacuum-commutator",
    "quadrature-vs-fock",
    "lagrangian-restriction-im",
    "weyl-defect-monotone",
    "weyl-defect-cutoff-32",
)
MAX_PROBLEMS = 5


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def grid_points(grid: dict) -> list[tuple[float, ...]]:
    """Points of an ``{axis: [start, stop, count]}`` grid, first axis slowest."""
    axes = [np.linspace(start, stop, count) for start, stop, count in grid.values()]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(p) for p in np.stack([m.reshape(-1) for m in mesh], axis=-1).tolist()]


def sphere_tensor(spin: float, beta: float) -> tuple[list[float], list[float]]:
    """Row-major (metric, two_form) of the round-sphere pull-back at ``beta``."""
    half = spin / 2
    sb = math.sin(beta)
    metric = [half * sb * sb, 0.0, 0.0, 0.0, half, 0.0, 0.0, 0.0, 0.0]
    two_form = [0.0, half * sb, 0.0, -half * sb, 0.0, 0.0, 0.0, 0.0, 0.0]
    return metric, two_form


def _split(objects: list[dict], mode: str, problems: list[str]):
    if not objects or objects[0].get("kind") != "header" or objects[0].get("mode") != mode:
        problems.append(f"first object is not a {mode} header")
    records = [o for o in objects if o.get("kind") == "record"]
    reports = [o for o in objects if o.get("kind") == "report"]
    return records, reports


def _deviation(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(abs(g - w) for g, w in zip(got, want))


def _check_grid_records(records, grid, spin, problems, entries) -> None:
    points = grid_points(grid)
    if len(records) != len(points):
        problems.append(f"{len(records)} records for {len(points)} grid points")
        return
    for index, (rec, point) in enumerate(zip(records, points)):
        if len(problems) >= MAX_PROBLEMS:
            return
        if _deviation(rec["point"], point) > RECORD_TOL:
            problems.append(f"record {index}: point {rec['point']} is not grid point {point}")
            continue
        metric, two_form = sphere_tensor(spin, point[1])
        for name, got, want in entries(rec, metric, two_form):
            dev = _deviation(got, want)
            if not dev <= RECORD_TOL:
                problems.append(f"record {index} at {point}: {name} off by {dev:.3e}")


def check_group(objects: list[dict], grid: dict, spin: float) -> list[str]:
    """Orbit pull-back records against the round-sphere closed form."""
    problems: list[str] = []
    records, _ = _split(objects, "group", problems)

    def entries(rec, metric, two_form):
        return (("metric", rec["metric"], metric), ("two_form", rec["two_form"], two_form))

    _check_grid_records(records, grid, spin, problems, entries)
    return problems


def check_qgt(objects: list[dict], grid: dict, spin: float) -> list[str]:
    """Spectral tensor records: Re h, Im h and the gap against closed forms."""
    problems: list[str] = []
    records, _ = _split(objects, "qgt", problems)

    def entries(rec, metric, two_form):
        h = rec["h"]
        return (
            ("Re h", [pair[0] for pair in h], metric),
            ("Im h", [pair[1] for pair in h], two_form),
            ("gap", [rec["gap"]], [GAP]),
        )

    _check_grid_records(records, grid, spin, problems, entries)
    return problems


def check_compare(objects: list[dict], n_records: int) -> list[str]:
    """A passing ``qpt compare`` report with one deviation per record."""
    problems: list[str] = []
    _, reports = _split(objects, "compare", problems)
    if len(reports) != 1:
        return problems + [f"{len(reports)} reports, expected 1"]
    report = reports[0]
    per_record = report.get("per_record_max", [])
    if len(per_record) != n_records:
        problems.append(f"{len(per_record)} per-record deviations for {n_records} records")
    worst = max(per_record, default=math.inf)
    if report.get("pass") is not True or not worst <= COMPARE_TOL:
        problems.append(f"compare did not pass: worst deviation {worst:.3e}")
    return problems


def check_weyl(objects: list[dict], modes: int) -> list[str]:
    """Flat tensor record ``(1/2) I + (i/2) omega`` and a passing report."""
    problems: list[str] = []
    records, reports = _split(objects, "weyl", problems)
    n = 2 * modes
    eye = [0.5 if j == k else 0.0 for j in range(n) for k in range(n)]
    omega = [
        0.5 * ((k == j + modes) - (j == k + modes)) for j in range(n) for k in range(n)
    ]
    if len(records) != 1:
        problems.append(f"{len(records)} records, expected 1")
    else:
        for name, want in (("metric", eye), ("two_form", omega)):
            dev = _deviation(records[0][name], want)
            if not dev <= FLAT_TOL:
                problems.append(f"{name} off the flat tensor by {dev:.3e}")
    if len(reports) != 1:
        return problems + [f"{len(reports)} reports, expected 1"]
    checks = {c["name"]: c for c in reports[0]["checks"]}
    missing = [name for name in WEYL_CHECKS if name not in checks]
    if missing:
        problems.append(f"report lacks checks {missing}")
    failing = [
        name for name, c in checks.items()
        if c["pass"] is not True or not c["residual"] <= c["tolerance"]
    ]
    if failing or reports[0].get("pass") is not True:
        problems.append(f"report does not pass: failing checks {failing}")
    return problems


def same_output(a, b, tol: float = RECORD_TOL, where: str = "$") -> list[str]:
    """Structural equality of two parsed outputs, numbers within ``tol``.

    Paths and timings never enter ``qpt`` records, so two runs of one command
    on the same inputs must agree everywhere except, at most, in rounding.
    ``file_a``/``file_b`` of a compare header name the files and are skipped.
    """
    if a == b:
        return []
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return [] if abs(a - b) <= tol else [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: lengths {len(a)} != {len(b)}"]
        problems = []
        for index, (x, y) in enumerate(zip(a, b)):
            problems += same_output(x, y, tol, f"{where}[{index}]")
            if len(problems) >= MAX_PROBLEMS:
                break
        return problems
    if isinstance(a, dict) and isinstance(b, dict):
        keys = [k for k in a if k not in ("file_a", "file_b")]
        if sorted(keys) != sorted(k for k in b if k not in ("file_a", "file_b")):
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        problems = []
        for key in keys:
            problems += same_output(a[key], b[key], tol, f"{where}.{key}")
        return problems
    return [f"{where}: {type(a).__name__} != {type(b).__name__}"]

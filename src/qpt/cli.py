"""Command-line front end.

Subcommands
-----------
``group``    sweep a chart grid and emit the orbit pull-back tensor field
``weyl``     emit the flat tensor of a truncated Weyl system, with checks
``qgt``      sweep a parameter grid and emit the spectral geometric tensor
``verify``   run the invariant battery of a referenced configuration
``compare``  entrywise comparison of two output files on the same grid

Outputs are JSON lines (one header object, one record per grid point, and
for checking modes a final report object) or a lossy CSV export.  Exit
codes: 0 success, 2 malformed specification, 3 numerical refusal, 4 check
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import checks, serialize
from .errors import NumericalRefusal, SpecError, require_integer
from .liegroup import (
    EULER_GENERATOR_SCALE,
    LEFT_INVARIANT,
    RIGHT_INVARIANT,
    euler_coframes,
    rep_from_spec,
)
from .pullback import contract, covariance_matrix
from .qgt import ham_from_spec, qgt_tensor
from .weyl import build_weyl, gaussian_covariance, lagrangian_restriction

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_REFUSAL = 3
EXIT_CHECK = 4

EULER_AXES = ("alpha", "beta", "gamma")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NumericalRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpt",
        description="Pull-back tensor fields from quantum state manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", help="JSON run description")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("jsonl", "csv"), default=None)
        p.add_argument("--grid", help="inline grid, e.g. beta=0.3:2.8:5,gamma=0:6:5")
        p.add_argument("--tol", type=float, default=None, help="comparison/check tolerance")
        p.add_argument("--fd-step", type=float, default=None, help="finite-difference step")
        p.add_argument(
            "--degeneracy-tol", type=float, default=None, help="eigenvalue gap floor"
        )

    p_group = sub.add_parser("group", help="group-orbit pull-back over a chart grid")
    add_common(p_group)
    p_group.add_argument("--projective", action="store_true", default=None)
    p_group.add_argument("--frame", choices=(RIGHT_INVARIANT, LEFT_INVARIANT), default=None)
    p_group.add_argument("--normalization", choices=("display", "generator"), default=None)
    p_group.set_defaults(handler=cmd_group)

    p_weyl = sub.add_parser("weyl", help="flat tensor of a truncated Weyl system")
    add_common(p_weyl)
    p_weyl.add_argument("--modes", type=int, default=None)
    p_weyl.add_argument("--cutoff", type=int, default=None)
    p_weyl.add_argument("--projective", action="store_true", default=None)
    p_weyl.add_argument(
        "--lagrangian",
        default=None,
        help="subspace directions, vectors ';'-separated with ','-separated entries",
    )
    p_weyl.set_defaults(handler=cmd_weyl)

    p_qgt = sub.add_parser("qgt", help="spectral geometric tensor over a parameter grid")
    add_common(p_qgt)
    p_qgt.add_argument("--level", type=int, default=None)
    p_qgt.set_defaults(handler=cmd_qgt)

    p_verify = sub.add_parser("verify", help="run the invariant battery for a spec")
    add_common(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_compare = sub.add_parser("compare", help="compare two jsonl outputs")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument("--tol", type=float, default=1e-8)
    p_compare.add_argument("--out", default="-")
    p_compare.set_defaults(handler=cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# Spec plumbing


def _load_spec(args, expected_mode: str) -> dict:
    spec = {}
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise SpecError("at $: spec must be a JSON object")
    mode = spec.get("mode", expected_mode)
    if mode != expected_mode:
        raise SpecError(f"at $.mode: spec is for mode {mode!r}, invoked as {expected_mode!r}")
    if getattr(args, "grid", None):
        spec["grid"] = _parse_grid_arg(args.grid)
    return spec


def _parse_grid_arg(text: str) -> dict:
    grid = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise SpecError(f"bad grid chunk {chunk!r}, expected name=start:stop:count")
        name, _, rest = chunk.partition("=")
        parts = rest.split(":")
        try:
            if len(parts) == 1:
                grid[name.strip()] = float(parts[0])
            elif len(parts) == 3:
                grid[name.strip()] = [float(parts[0]), float(parts[1]), int(parts[2])]
            else:
                raise ValueError("expected value or start:stop:count")
        except ValueError as exc:
            raise SpecError(f"bad grid chunk {chunk!r}: {exc}") from exc
    if not grid:
        raise SpecError("inline grid is empty")
    return grid


def _grid_axes(spec: dict, required_names=None) -> list[tuple[str, np.ndarray]]:
    grid = spec.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise SpecError("at $.grid: a non-empty grid object is required")
    axes = []
    for name, rng in grid.items():
        path = f"$.grid.{name}"
        if isinstance(rng, (int, float)):
            values = np.array([float(rng)])
        else:
            if not isinstance(rng, (list, tuple)) or len(rng) != 3:
                raise SpecError(f"at {path}: expected [start, stop, count] or a number")
            start, stop, count = rng
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise SpecError(f"at {path}[2]: count must be an integer >= 1")
            start, stop = float(start), float(stop)
            if not (np.isfinite(start) and np.isfinite(stop)):
                raise SpecError(f"at {path}: range endpoints must be finite")
            values = np.linspace(start, stop, count) if count > 1 else np.array([start])
        axes.append((str(name), values))
    if required_names is not None:
        names = [a[0] for a in axes]
        if sorted(names) != sorted(required_names):
            raise SpecError(
                f"at $.grid: expected axes {list(required_names)}, got {names}"
            )
        axes.sort(key=lambda item: list(required_names).index(item[0]))
    return axes


def _grid_points(axes) -> np.ndarray:
    """All grid points in row-major order, shape ``(P, len(axes))``."""
    mesh = np.meshgrid(*[values for _, values in axes], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _fiducial_from_spec(spec: dict) -> np.ndarray:
    if "fiducial" not in spec:
        raise SpecError("at $.fiducial: a fiducial state is required")
    try:
        vec = serialize.pairs_to_vector(spec["fiducial"])
    except (TypeError, ValueError, IndexError) as exc:
        raise SpecError(f"at $.fiducial: expected a list of [re, im] pairs ({exc})") from exc
    return vec


def _flag(spec, args, name, default):
    cli_value = getattr(args, name, None)
    if cli_value is not None:
        return cli_value
    value = spec.get(name, default)
    return value


def _integer(spec, args, name, default) -> int:
    return require_integer(_flag(spec, args, name, default), f"$.{name}")


def _level(spec, args, family, point) -> int:
    """Eigenlevel to follow: an integer below the family's dimension at ``point``."""
    path = "$.level" if _flag(spec, args, "level", None) is not None else "$.hamiltonian.level"
    level = require_integer(_flag(spec, args, "level", family.level), path)
    dim = family.hamiltonian(point).shape[0]
    if not 0 <= level < dim:
        raise SpecError(f"at {path}: level {level} is out of range for {dim} levels")
    return level


def _projective(spec, args) -> bool:
    projective = _flag(spec, args, "projective", False)
    if not isinstance(projective, bool):
        raise SpecError(f"at $.projective: expected true or false, got {projective!r}")
    return projective


def _tolerances(spec: dict, args) -> dict:
    """Tolerance settings: command-line flags override the spec block."""
    block = spec.get("tolerances", {})
    if block and not isinstance(block, dict):
        raise SpecError("at $.tolerances: expected an object")

    def pick(flag, key, default):
        value = getattr(args, flag, None)
        if value is not None:
            return value
        return block.get(key, default)

    return {
        "tol": pick("tol", "tol", None),
        "fd_step": pick("fd_step", "fd_step", 1e-5),
        "degeneracy_tol": pick("degeneracy_tol", "degeneracy_tol", None),
    }


# ---------------------------------------------------------------------------
# Output plumbing


def _output_target(args, spec: dict) -> tuple[str, str]:
    """Output path and format: command-line flags override ``$.output``."""
    output = spec.get("output", {})
    if output and not isinstance(output, dict):
        raise SpecError("at $.output: expected an object")
    fmt = output.get("format")
    if fmt is not None and fmt not in ("jsonl", "csv"):
        raise SpecError("at $.output.format: expected 'jsonl' or 'csv'")
    path = args.out if args.out != "-" else output.get("path") or "-"
    if path != "-" and not os.path.isdir(os.path.dirname(path) or "."):
        raise SpecError(f"cannot write output {path!r}: no such directory")
    return path, args.format or fmt or "jsonl"


def _write_output(output, header: dict, records: list[dict], report: dict | None = None):
    path, fmt = output
    try:
        stream = sys.stdout if path == "-" else open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot write output: {exc}") from exc
    with contextlib.nullcontext(stream) if path == "-" else stream:
        if fmt == "csv":
            _write_csv(stream, records)
            return
        objects = itertools.chain(
            [dict(kind="header", **header)],
            (dict(kind="record", **rec) for rec in records),
            [] if report is None else [dict(kind="report", **report)],
        )
        serialize.write_jsonl(stream, objects)


def _write_csv(stream, records: list[dict]) -> None:
    # CSV is a lossy convenience export: records only, flattened row-major.
    if not records:
        return
    writer = csv.writer(stream)
    first = records[0]
    m = len(first["point"])
    if "metric" in first:
        side = int(round(len(first["metric"]) ** 0.5))
        head = [f"x{i}" for i in range(m)]
        head += [f"g{i}{j}" for i in range(side) for j in range(side)]
        head += [f"w{i}{j}" for i in range(side) for j in range(side)]
        writer.writerow(head)
        for rec in records:
            writer.writerow(rec["point"] + rec["metric"] + rec["two_form"])
    else:
        side = int(round(len(first["h"]) ** 0.5))
        head = [f"x{i}" for i in range(m)]
        head += [f"h{i}{j}_{part}" for i in range(side) for j in range(side) for part in ("re", "im")]
        head += ["gap"]
        writer.writerow(head)
        for rec in records:
            flat = [x for pair in rec["h"] for x in pair]
            writer.writerow(rec["point"] + flat + [rec["gap"]])


def _report(results: list[checks.CheckResult]) -> dict:
    return {
        "checks": [r.to_json() for r in results],
        "pass": all(r.passed for r in results),
    }


# ---------------------------------------------------------------------------
# Subcommands


def cmd_group(args) -> int:
    spec = _load_spec(args, "group")
    output = _output_target(args, spec)
    if "rep" not in spec:
        raise SpecError("at $.rep: a representation spec is required")
    rep = rep_from_spec(spec["rep"])
    fiducial = _fiducial_from_spec(spec)
    projective = _projective(spec, args)
    frame = _flag(spec, args, "frame", RIGHT_INVARIANT)
    if frame not in (RIGHT_INVARIANT, LEFT_INVARIANT):
        raise SpecError(f"at $.frame: unknown frame {frame!r}")
    normalization = _flag(spec, args, "normalization", "display")
    if normalization not in ("display", "generator"):
        raise SpecError(f"at $.normalization: expected 'display' or 'generator'")
    chart = spec.get("chart", "euler")
    if chart != "euler":
        raise SpecError(f"at $.chart: only the 'euler' chart is supported, got {chart!r}")
    if rep.n_generators != 3:
        raise SpecError("at $.rep: the euler chart needs a three-generator representation")
    axes = _grid_axes(spec, required_names=EULER_AXES)
    points = _grid_points(axes)

    tensor = covariance_matrix(rep, fiducial, projective=projective)
    scale = EULER_GENERATOR_SCALE if normalization == "generator" else 1.0
    metric, two_form = contract(tensor, euler_coframes(points, frame) * scale)
    records = [
        {"point": p, "metric": g, "two_form": w}
        for p, g, w in zip(
            points.tolist(),
            metric.reshape(len(points), -1).tolist(),
            two_form.reshape(len(points), -1).tolist(),
        )
    ]
    header = {
        "mode": "group",
        "rep": spec["rep"],
        "fiducial": serialize.vector_pairs(tensor.fiducial),
        "projective": projective,
        "frame": frame,
        "normalization": normalization,
        "chart": chart,
        "grid": {name: [float(v) for v in values] for name, values in axes},
        "conventions": checks.conventions(),
    }
    _write_output(output, header, records)
    return EXIT_OK


def _parse_directions(raw, n2: int):
    if raw is None:
        return None
    if isinstance(raw, str):
        groups = [chunk for chunk in raw.split(";") if chunk.strip()]
        try:
            vectors = [
                np.array([float(x) for x in chunk.split(",")]) for chunk in groups
            ]
        except ValueError as exc:
            raise SpecError(f"bad lagrangian direction spec: {exc}") from exc
    elif isinstance(raw, list):
        vectors = [np.asarray(v, dtype=float) for v in raw]
    else:
        raise SpecError("at $.lagrangian: expected a string or list of vectors")
    for v in vectors:
        if v.shape != (n2,):
            raise SpecError(
                f"at $.lagrangian: each direction needs {n2} components, got {v.shape}"
            )
    return vectors


def cmd_weyl(args) -> int:
    spec = _load_spec(args, "weyl")
    output = _output_target(args, spec)
    modes = _integer(spec, args, "modes", 1)
    cutoff = _integer(spec, args, "cutoff", 16)
    projective = _projective(spec, args)
    system = build_weyl(modes, cutoff)
    tensor = gaussian_covariance(system, projective=projective)
    directions = _parse_directions(_flag(spec, args, "lagrangian", None), 2 * modes)

    results = checks.weyl_checks(system)
    emitted = tensor
    if directions is not None:
        emitted = lagrangian_restriction(tensor, directions)
        results.append(
            checks.CheckResult(
                "requested-lagrangian-im",
                float(np.abs(emitted.coefficients.imag).max()),
                1e-14,
            )
        )

    side = emitted.coefficients.shape[0]
    record = {
        "point": [0.0] * side,
        "metric": serialize.real_matrix_row_major(emitted.coefficients.real),
        "two_form": serialize.real_matrix_row_major(emitted.coefficients.imag),
    }
    header = {
        "mode": "weyl",
        "rep": {"builtin": "heisenberg", "modes": modes, "cutoff": cutoff},
        "fiducial": serialize.vector_pairs(tensor.fiducial),
        "projective": projective,
        "lagrangian": None if directions is None else [list(map(float, v)) for v in directions],
        "conventions": checks.conventions(),
    }
    report = _report(results)
    _write_output(output, header, [record], report)
    return EXIT_OK if report["pass"] else EXIT_CHECK


def cmd_qgt(args) -> int:
    spec = _load_spec(args, "qgt")
    output = _output_target(args, spec)
    if "hamiltonian" not in spec:
        raise SpecError("at $.hamiltonian: a hamiltonian spec is required")
    family = ham_from_spec(spec["hamiltonian"])
    axes = _grid_axes(spec)
    if len(axes) != family.param_dim:
        raise SpecError(
            f"at $.grid: family has {family.param_dim} parameters, grid has {len(axes)} axes"
        )
    points = _grid_points(axes)
    level = _level(spec, args, family, points[0])
    tols = _tolerances(spec, args)
    family.fd_step = float(tols["fd_step"])
    degeneracy_tol = tols["degeneracy_tol"]

    def one(point):
        res = qgt_tensor(family, point, a=level, degeneracy_tol=degeneracy_tol)
        return {
            "point": point.tolist(),
            "h": serialize.matrix_pairs_row_major(res.h),
            "gap": float(res.gap),
        }

    records = [one(point) for point in points]
    header = {
        "mode": "qgt",
        "hamiltonian": spec["hamiltonian"],
        "level": level,
        "grid": {name: [float(v) for v in values] for name, values in axes},
        "conventions": checks.conventions(),
    }
    _write_output(output, header, records)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_spec(args, "verify")
    output = _output_target(args, spec)
    target = spec.get("target")
    if target not in ("group", "weyl", "qgt"):
        raise SpecError("at $.target: expected 'group', 'weyl' or 'qgt'")
    tols = _tolerances(spec, args)
    fd_step = float(tols["fd_step"])

    if target == "group":
        if "rep" not in spec:
            raise SpecError("at $.rep: a representation spec is required")
        rep = rep_from_spec(spec["rep"])
        fiducial = _fiducial_from_spec(spec)
        axes = _grid_axes(spec)
        n_points = max(5, min(50, math.prod(len(values) for _, values in axes)))
        results = checks.group_checks(rep, fiducial, n_points=n_points, fd_step=fd_step)
        header = {"mode": "verify", "target": target, "rep": spec["rep"]}
    elif target == "weyl":
        modes = _integer(spec, args, "modes", 1)
        cutoff = _integer(spec, args, "cutoff", 16)
        results = checks.weyl_checks(build_weyl(modes, cutoff))
        header = {"mode": "verify", "target": target, "modes": modes, "cutoff": cutoff}
    else:
        if "hamiltonian" not in spec:
            raise SpecError("at $.hamiltonian: a hamiltonian spec is required")
        family = ham_from_spec(spec["hamiltonian"])
        axes = _grid_axes(spec)
        if len(axes) != family.param_dim:
            raise SpecError(
                f"at $.grid: family has {family.param_dim} parameters, grid has {len(axes)} axes"
            )
        points = _grid_points(axes)
        level = _level(spec, args, family, points[0])
        results = checks.qgt_checks(family, points, level=level, fd_step=fd_step)
        builtin = spec["hamiltonian"].get("builtin") if isinstance(spec["hamiltonian"], dict) else None
        if builtin == "bloch":
            results += checks.bloch_closed_form_checks()
        elif builtin == "landau_zener":
            results += checks.landau_zener_checks(float(spec["hamiltonian"].get("delta", 1.0)))
        header = {"mode": "verify", "target": target, "hamiltonian": spec["hamiltonian"]}

    if tols["tol"] is not None:
        cap = float(tols["tol"])
        results = [
            checks.CheckResult(r.name, r.residual, min(r.tolerance, cap)) for r in results
        ]
    header["conventions"] = checks.conventions()
    report = _report(results)
    _write_output(output, header, [], report)
    return EXIT_OK if report["pass"] else EXIT_CHECK


def _records_of(path: str) -> tuple[list[dict], list[dict]]:
    try:
        objects = serialize.read_jsonl(path)
    except (OSError, ValueError) as exc:
        raise SpecError(f"{path}: cannot read jsonl input ({exc})") from exc
    if not all(isinstance(o, dict) for o in objects):
        raise SpecError(f"{path}: every jsonl line must be a JSON object")
    records = [o for o in objects if o.get("kind") == "record"]
    headers = [o for o in objects if o.get("kind") == "header"]
    if not records:
        raise SpecError(f"{path}: no records found (jsonl input required)")
    return headers, records


def _record_deviation(rec_a: dict, rec_b: dict, index: int) -> float:
    kind_a = "metric" if "metric" in rec_a else "h"
    kind_b = "metric" if "metric" in rec_b else "h"
    if kind_a == "metric" and kind_b == "metric":
        dev = max(
            float(np.abs(np.asarray(rec_a["metric"]) - np.asarray(rec_b["metric"])).max()),
            float(np.abs(np.asarray(rec_a["two_form"]) - np.asarray(rec_b["two_form"])).max()),
        )
        return dev
    if kind_a == "h" and kind_b == "h":
        ha = serialize.pairs_to_vector(rec_a["h"])
        hb = serialize.pairs_to_vector(rec_b["h"])
        if ha.shape != hb.shape:
            raise SpecError(f"record {index}: tensor shapes differ")
        return float(np.abs(ha - hb).max())
    # Mixed comparison: metric/two_form against Re/Im of the spectral tensor.
    rec_m = rec_a if kind_a == "metric" else rec_b
    rec_h = rec_b if kind_a == "metric" else rec_a
    side = int(round(len(rec_m["metric"]) ** 0.5))
    h = serialize.row_major_pairs_to_matrix(rec_h["h"], int(round(len(rec_h["h"]) ** 0.5)))
    if h.shape[0] != side:
        raise SpecError(f"record {index}: grid mismatch (tensor sides {side} vs {h.shape[0]})")
    metric = serialize.row_major_to_matrix(rec_m["metric"], side)
    two_form = serialize.row_major_to_matrix(rec_m["two_form"], side)
    return max(
        float(np.abs(metric - h.real).max()),
        float(np.abs(two_form - h.imag).max()),
    )


def cmd_compare(args) -> int:
    _, records_a = _records_of(args.file_a)
    _, records_b = _records_of(args.file_b)
    if len(records_a) != len(records_b):
        raise SpecError(
            f"grid mismatch: {len(records_a)} records vs {len(records_b)} records"
        )
    same_points = all(
        len(a["point"]) == len(b["point"]) for a, b in zip(records_a, records_b)
    )
    if same_points:
        for idx, (a, b) in enumerate(zip(records_a, records_b)):
            if np.abs(np.asarray(a["point"]) - np.asarray(b["point"])).max() > 1e-12:
                raise SpecError(f"grid mismatch at record {idx}: points differ")
    worst = 0.0
    per_record = []
    for idx, (a, b) in enumerate(zip(records_a, records_b)):
        dev = _record_deviation(a, b, idx)
        per_record.append(dev)
        worst = max(worst, dev)
    report = {
        "checks": [
            {
                "name": "max-deviation",
                "residual": worst,
                "tolerance": args.tol,
                "pass": worst <= args.tol,
            }
        ],
        "per_record_max": per_record,
        "pass": worst <= args.tol,
    }
    header = {"mode": "compare", "file_a": args.file_a, "file_b": args.file_b}
    _write_output((args.out, "jsonl"), header, [], report)
    return EXIT_OK if report["pass"] else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())

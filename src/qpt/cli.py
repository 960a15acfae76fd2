"""Command-line front end.

Subcommands
-----------
``group``    sweep a chart grid and emit the orbit pull-back tensor field
``weyl``     emit the flat tensor of a truncated Weyl system, with checks
``qgt``      sweep a parameter grid and emit the spectral geometric tensor
``verify``   run the invariant battery of a referenced configuration
``compare``  entrywise comparison of two output files on the same grid

:func:`main` runs every command the same way: it parses the arguments,
loads the spec for the invoked mode, resolves the output path and format
(before any computation), calls the command's handler for its header,
records and report, and writes them into an unnamed temporary file.  Only
once that succeeds is the output opened and the spool copied into it, so a
failed run writes nothing and leaves an old file untouched.  It exits 4 if
the report failed.  :func:`run`, behind the ``qpt`` script and ``python -m
qpt.cli``, calls :func:`main`, flushes standard output and error and ends the
process through ``os._exit``, skipping the interpreter's teardown; ``main``
itself returns its code, for tests and in-process callers.  Each handler
imports the modules it uses when it runs, so a process loads only its own
command's: ``compare`` no embedding module, ``group`` neither ``qgt`` nor
``weyl`` nor the check battery, ``qgt`` no ``weyl``.

Outputs are JSON lines (one header object, one record per grid point, and
for checking modes a final report object) or, for ``group``, ``weyl`` and
``qgt``, a lossy CSV export of the records.  Exit codes: 0 success, 2
malformed specification, 3 numerical refusal, 4 check failure.  A standard
output closed by its reader (``qpt group ... | head``) ends the run with
exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import serialize
from .errors import (
    NumericalRefusal, SpecError, require_array, require_bool, require_choice, require_integer,
    require_number, require_object, require_string,
)
from .report import CheckResult, conventions

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SPEC = 2
EXIT_REFUSAL = 3
EXIT_CHECK = 4

EULER_AXES = ("alpha", "beta", "gamma")
# The names of liegroup.RIGHT_INVARIANT and LEFT_INVARIANT, default first: the
# parser takes them before any embedding module is loaded.
FRAMES = ("right", "left")

# Largest grid, in points, that a run accepts: about ten times the largest
# benchmark grid.  Records are evaluated and written a chunk at a time on
# every path, but the ``(P, m)`` point stack is held for the whole run, so the
# bound is checked before any grid array is allocated.
MAX_GRID_POINTS = 2**20


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        output = _output_target(args, spec)
        header, records, report = args.handler(args, spec)
        _write_output(output, {"mode": args.command, **header}, records, report)
    except BrokenPipeError:
        # Nothing is left to read the output: point standard output at the
        # null device, so the flush at exit does not fail on it again.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except NumericalRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    return EXIT_CHECK if report is not None and not report["pass"] else EXIT_OK


def run() -> None:
    """:func:`main` as a whole process: its code is the exit status, once
    standard output and error are flushed.  A flush that fails, as on a
    reader that has gone, exits 1.  The process ends through ``os._exit``,
    without the interpreter's teardown; an exception that escapes ``main``
    takes the normal exit path, traceback and all."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None: started without it
        try:
            stream.flush()
        except (OSError, ValueError):  # ValueError: a stream closed under us
            code = EXIT_FAILURE
    os._exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpt",
        description="Pull-back tensor fields from quantum state manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand registers only the flags its handler reads; only the
    # commands that write records take --format.
    def add_common(p, grid=True, records=True):
        p.add_argument("--spec", help="JSON run description")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        if records:
            p.add_argument("--format", choices=("jsonl", "csv"), default=None)
        if grid:
            p.add_argument("--grid", help="inline grid, e.g. beta=0.3:2.8:5,gamma=0:6:5")

    p_group = sub.add_parser("group", help="group-orbit pull-back over a chart grid")
    add_common(p_group)
    p_group.add_argument("--projective", action="store_true", default=None)
    p_group.add_argument("--frame", choices=FRAMES, default=None)
    p_group.add_argument("--normalization", choices=("display", "generator"), default=None)
    p_group.set_defaults(handler=cmd_group)

    p_weyl = sub.add_parser("weyl", help="flat tensor of a truncated Weyl system")
    add_common(p_weyl, grid=False)
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
    p_qgt.add_argument("--degeneracy-tol", type=float, help="eigenvalue gap floor")
    p_qgt.add_argument("--level", type=int, default=None)
    p_qgt.set_defaults(handler=cmd_qgt)

    p_verify = sub.add_parser("verify", help="run the invariant battery for a spec")
    add_common(p_verify, records=False)
    p_verify.add_argument("--tol", type=float, help="check tolerance cap")
    p_verify.add_argument("--fd-step", type=float, help="finite-difference step")
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


def _load_spec(args) -> dict:
    """The spec file of ``--spec``, or ``{}``, for the mode ``args.command``,
    with ``--grid`` in place of its grid."""
    spec = {}
    if getattr(args, "spec", None):
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh, object_pairs_hook=_unique_keys)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from exc
        require_object(spec, "$")
    mode = spec.get("mode", args.command)
    if mode != args.command:
        raise SpecError(f"at $.mode: spec is for mode {mode!r}, invoked as {args.command!r}")
    if getattr(args, "grid", None):
        spec["grid"] = _parse_grid_arg(args.grid)
    return spec


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct: a repeated key is an error,
    not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecError(f"spec file repeats the key {key!r} in one object")
        obj[key] = value
    return obj


def _parse_grid_arg(text: str) -> dict:
    """Comma-separated ``name=value`` or ``name=start:stop:count`` chunks as a
    spec grid, which :func:`_grid_axes` then checks like any other."""
    grid = {}
    for chunk in filter(None, map(str.strip, text.split(","))):
        name, sep, rest = chunk.partition("=")
        name = name.strip()
        parts = rest.split(":")
        try:
            if not sep or len(parts) not in (1, 3):
                raise ValueError("expected name=value or name=start:stop:count")
            values = [float(p) for p in parts[:2]] + [int(p) for p in parts[2:]]
        except ValueError as exc:
            raise SpecError(f"bad grid chunk {chunk!r}: {exc}") from exc
        if name in grid:
            raise SpecError(f"bad grid chunk {chunk!r}: axis {name!r} is given twice")
        grid[name] = values[0] if len(values) == 1 else values
    if not grid:
        raise SpecError("inline grid is empty")
    return grid


def _grid_axes(spec: dict, required_names=None) -> list[tuple[str, np.ndarray]]:
    """Named grid axes; every count is read, and the total checked against
    :data:`MAX_GRID_POINTS`, before any axis is allocated."""
    grid = require_object(spec.get("grid"), "$.grid")
    if not grid:
        raise SpecError("at $.grid: a non-empty grid object is required")
    ranges = []
    for name, rng in grid.items():
        path = f"$.grid.{name}"
        if not isinstance(rng, (list, tuple)):
            value = require_number(rng, path)
            ranges.append((str(name), value, value, 1))
            continue
        if len(rng) != 3:
            raise SpecError(f"at {path}: expected [start, stop, count] or a number")
        count = require_integer(rng[2], f"{path}[2]")
        if count < 1:
            raise SpecError(f"at {path}[2]: count must be an integer >= 1")
        start, stop = require_number(rng[0], f"{path}[0]"), require_number(rng[1], f"{path}[1]")
        ranges.append((str(name), start, stop, count))
    total = math.prod(count for *_, count in ranges)
    if total > MAX_GRID_POINTS:
        raise SpecError(f"at $.grid: {total} points exceed the budget of {MAX_GRID_POINTS}")
    axes = [(name, np.linspace(start, stop, count)) for name, start, stop, count in ranges]
    if required_names is not None:
        names = [a[0] for a in axes]
        if sorted(names) != sorted(required_names):
            raise SpecError(
                f"at $.grid: expected axes {list(required_names)}, got {names}"
            )
        axes.sort(key=lambda item: list(required_names).index(item[0]))
    return axes


def _rep_and_fiducial(spec: dict):
    """The representation at ``$.rep`` and a fiducial of its dimension at
    ``$.fiducial``, a list of ``[re, im]`` pairs."""
    from .liegroup import rep_from_spec

    rep = rep_from_spec(spec.get("rep"))
    # Any finite fiducial: it is scaled before its norm is taken.
    fiducial = require_array(spec.get("fiducial"), "$.fiducial", 1, pairs=True, bound=sys.float_info.max)
    if len(fiducial) != rep.dim:
        raise SpecError(f"at $.fiducial: expected {rep.dim} entries for the rep, got {len(fiducial)}")
    return rep, fiducial


def _weyl_system(spec: dict, args):
    """The Weyl system of ``$.modes`` and ``$.cutoff``.  Its own size and that
    of the cutoff-32 defect check are checked before any state is allocated,
    and a refusal names the spec path."""
    from .checks import check_defect_budget
    from .weyl import build_weyl

    modes = require_integer(_flag(spec, args, "modes", 1), "$.modes")
    cutoff = require_integer(_flag(spec, args, "cutoff", 16), "$.cutoff")
    system = build_weyl(modes, cutoff, ("$.modes", "$.cutoff"))
    check_defect_budget(modes, "$.modes")
    return system


def _flag(spec, args, name, default):
    """The command-line flag ``name`` if given, else ``spec[name]`` or ``default``."""
    value = getattr(args, name, None)
    return spec.get(name, default) if value is None else value


def _family_on_grid(spec, args):
    """The family at ``$.hamiltonian``, its grid axes and ``(P, m)`` points,
    and the eigenlevel to follow: an integer below the family's dimension."""
    from .liegroup import grid_points
    from .qgt import ham_from_spec

    family = ham_from_spec(spec.get("hamiltonian"))
    axes = _grid_axes(spec)
    if len(axes) != family.param_dim:
        raise SpecError(
            f"at $.grid: family has {family.param_dim} parameters, grid has {len(axes)} axes"
        )
    points = grid_points(*(values for _, values in axes))
    given = "level" in spec or getattr(args, "level", None) is not None
    path = "$.level" if given else "$.hamiltonian.level"
    level = require_integer(_flag(spec, args, "level", family.level), path)
    dim = family.hamiltonian(points[0]).shape[0]
    if not 0 <= level < dim:
        raise SpecError(f"at {path}: level {level} is out of range for {dim} levels")
    return family, axes, points, level


def _tolerance(spec: dict, args, key: str, default):
    """One tolerance: its command-line flag overrides ``$.tolerances.<key>``.
    Steps and floors, every key but the ``tol`` cap, must be positive; the
    cap must be at least 0."""
    value = _flag(require_object(spec.get("tolerances", {}), "$.tolerances"), args, key, default)
    if value is None and default is None:
        return None
    return _bounded(value, f"$.tolerances.{key}", strict=key != "tol")


def _bounded(value, path: str, strict: bool) -> float:
    """``value`` if it is a finite number ``> 0`` (``strict``) or ``>= 0``."""
    value = require_number(value, path)
    if value < 0 or (strict and value == 0):
        raise SpecError(f"at {path}: expected a number {'>' if strict else '>='} 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Output plumbing


def _output_target(args, spec: dict) -> tuple[str, str]:
    """Output path and format: command-line flags override ``$.output``.
    CSV is only for the commands that write records, those with ``--format``."""
    output = require_object(spec.get("output", {}), "$.output")
    formats = ("jsonl", "csv") if "format" in vars(args) else ("jsonl",)
    fmt = require_choice(output.get("format", "jsonl"), formats, "$.output.format")
    path = require_string(output.get("path", "-"), "$.output.path")
    path = path if args.out == "-" else args.out
    if path != "-" and not os.path.isdir(os.path.dirname(path) or "."):
        raise SpecError(f"cannot write output {path!r}: no such directory")
    if path != "-" and os.path.isdir(path):
        raise SpecError(f"cannot write output {path!r}: it is a directory")
    return path, getattr(args, "format", None) or fmt


def _write_output(output, header: dict, records=None, report: dict | None = None):
    """The header, the records and the report, or only the records as CSV.
    ``records`` is ``(points, columns)``: the ``(P, m)`` point stack and the
    function that evaluates a slice of it into fields, each record's tensor
    ``m x m`` (see :func:`serialize.write_records`).  Everything goes into an
    unnamed temporary file first; the output is opened, and the bytes copied
    into it, only after every record is written there."""
    path, fmt = output
    with tempfile.TemporaryFile() as spool:
        if fmt == "jsonl":
            spool.write((serialize.dump_line(dict(kind="header", **header)) + "\n").encode())
        else:  # the names need no quoting, so this is csv.writer's row
            spool.write((",".join(_csv_head(records[0].shape[1], header["mode"] == "qgt")) + "\r\n").encode())
        if records is not None:
            serialize.write_records(spool, *records, fmt)
        if fmt == "jsonl" and report is not None:
            spool.write((serialize.dump_line(dict(kind="report", **report)) + "\n").encode())
        spool.seek(0)
        try:
            stream = sys.stdout if path == "-" else open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise SpecError(f"cannot write output: {exc}") from exc
        with contextlib.nullcontext(stream) if path == "-" else stream:
            stream.flush()  # text written before goes first
            shutil.copyfileobj(spool, stream.buffer)
            stream.flush()  # a reader that has gone shows here, not at exit


def _csv_head(m: int, spectral: bool) -> list[str]:
    # CSV is a lossy convenience export: records only, flattened row-major.
    pairs = [f"{i}{j}" for i in range(m) for j in range(m)]
    head = [f"x{i}" for i in range(m)]
    if spectral:
        return head + [f"h{ij}_{part}" for ij in pairs for part in ("re", "im")] + ["gap"]
    return head + [f"g{ij}" for ij in pairs] + [f"w{ij}" for ij in pairs]


def _report(results: list[CheckResult], cap: float | None = None, **extra) -> dict:
    """The checks, each tolerance capped at ``cap`` if given, then ``extra``
    fields and the overall verdict."""
    rows = [r.to_json(cap) for r in results]
    return {"checks": rows, **extra, "pass": all(row["pass"] for row in rows)}


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed arguments and the loaded spec and
# returns its header, its records as ``(points, columns)`` or None, and its
# report or None.


def cmd_group(args, spec: dict):
    from .liegroup import EULER_GENERATOR_SCALE, euler_coframes, grid_points
    from .pullback import covariance_matrix, evaluate_at

    rep, fiducial = _rep_and_fiducial(spec)
    projective = require_bool(_flag(spec, args, "projective", False), "$.projective")
    frame = require_choice(_flag(spec, args, "frame", FRAMES[0]), FRAMES, "$.frame")
    normalization = require_choice(
        _flag(spec, args, "normalization", "display"), ("display", "generator"), "$.normalization"
    )
    chart = require_choice(spec.get("chart", "euler"), ("euler",), "$.chart")
    if rep.n_generators != 3:
        raise SpecError("at $.rep: the euler chart needs a three-generator representation")
    axes = _grid_axes(spec, required_names=EULER_AXES)
    points = grid_points(*(values for _, values in axes))

    tensor = covariance_matrix(rep, fiducial, projective=projective)
    scale = EULER_GENERATOR_SCALE if normalization == "generator" else 1.0

    def columns(chunk, start):
        metric, two_form = evaluate_at(tensor, euler_coframes(chunk, frame) * scale)
        return {
            "point": chunk,
            "metric": metric.reshape(len(chunk), -1),
            "two_form": two_form.reshape(len(chunk), -1),
        }

    header = {
        "rep": spec["rep"],
        "fiducial": np.stack([tensor.fiducial.real, tensor.fiducial.imag], -1).tolist(),
        "projective": projective,
        "frame": frame,
        "normalization": normalization,
        "chart": chart,
        "grid": {name: values.tolist() for name, values in axes},
        "conventions": conventions(),
    }
    return header, (points, columns), None


def _parse_directions(raw, n2: int):
    """``$.lagrangian`` as rows of ``n2`` numbers, or None.  The command-line
    form, vectors ';'-separated with ','-separated entries, is split into
    numbers first and then checked like the list form."""
    if raw is None:
        return None
    if isinstance(raw, str):
        try:
            raw = [[float(x) for x in v.split(",")] for v in raw.split(";") if v.strip()]
        except ValueError as exc:
            raise SpecError(f"at $.lagrangian: bad direction text {raw!r}: {exc}") from exc
    vectors = require_array(raw, "$.lagrangian", 2)
    if vectors.shape[1] != n2:
        raise SpecError(f"at $.lagrangian: each direction needs {n2} entries, got {vectors.shape[1]}")
    return vectors


def cmd_weyl(args, spec: dict):
    from .checks import weyl_checks
    from .weyl import gaussian_covariance, lagrangian_restriction

    system = _weyl_system(spec, args)
    projective = require_bool(_flag(spec, args, "projective", False), "$.projective")
    tensor = gaussian_covariance(system, projective=projective)
    directions = _parse_directions(_flag(spec, args, "lagrangian", None), 2 * system.modes)

    results = weyl_checks(system)
    emitted = tensor
    if directions is not None:
        emitted = lagrangian_restriction(tensor, directions)
        results.append(
            CheckResult(
                "requested-lagrangian-im",
                float(np.abs(emitted.coefficients.imag).max()),
                1e-14,
            )
        )

    record = {
        "point": np.zeros((1, emitted.coefficients.shape[0])),
        "metric": emitted.coefficients.real.reshape(1, -1),
        "two_form": emitted.coefficients.imag.reshape(1, -1),
    }
    header = {
        "rep": {"builtin": "heisenberg", "modes": system.modes, "cutoff": system.cutoff},
        "fiducial": "vacuum",
        "projective": projective,
        "lagrangian": None if directions is None else directions.tolist(),
        "conventions": conventions(),
    }
    return header, (record["point"], lambda point, start: record), _report(results)


def cmd_qgt(args, spec: dict):
    from .qgt import qgt_tensor

    family, axes, points, level = _family_on_grid(spec, args)
    degeneracy_tol = _tolerance(spec, args, "degeneracy_tol", None)

    def columns(chunk, start):
        res = qgt_tensor(family, chunk, a=level, degeneracy_tol=degeneracy_tol, start=start)
        h = res.h.reshape(len(chunk), -1)
        return {
            "point": chunk,
            "h": np.stack([h.real, h.imag], axis=-1),  # row-major [re, im] entries
            "gap": res.gap,
        }

    header = {
        "hamiltonian": spec["hamiltonian"],
        "level": level,
        "grid": {name: values.tolist() for name, values in axes},
        "conventions": conventions(),
    }
    return header, (points, columns), None


def cmd_verify(args, spec: dict):
    from . import checks

    target = require_choice(spec.get("target"), ("group", "weyl", "qgt"), "$.target")
    fd_step = _tolerance(spec, args, "fd_step", 1e-5)
    cap = _tolerance(spec, args, "tol", None)

    if target == "group":
        rep, fiducial = _rep_and_fiducial(spec)
        axes = _grid_axes(spec)
        n_points = max(5, min(50, math.prod(len(values) for _, values in axes)))
        results = checks.group_checks(rep, fiducial, n_points=n_points, fd_step=fd_step)
        header = {"target": target, "rep": spec["rep"]}
    elif target == "weyl":
        system = _weyl_system(spec, args)
        results = checks.weyl_checks(system)
        header = {"target": target, "modes": system.modes, "cutoff": system.cutoff}
    else:
        family, _, points, level = _family_on_grid(spec, args)
        results = checks.qgt_checks(family, points, level=level, fd_step=fd_step)
        builtin = spec["hamiltonian"].get("builtin")
        if builtin == "bloch":
            results += checks.bloch_closed_form_checks()
        elif builtin == "landau_zener":
            delta = require_number(spec["hamiltonian"].get("delta", 1.0), "$.hamiltonian.delta")
            results += checks.landau_zener_checks(delta)
        header = {"target": target, "hamiltonian": spec["hamiltonian"]}
    header["conventions"] = conventions()
    return header, None, _report(results, cap)


def _record_stacks(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The records of a jsonl output, read line by line, as a ``(P, m)``
    point stack and a ``(P, s, s)`` complex tensor stack: ``h`` for qgt
    records, ``metric + 1j * two_form`` for group and weyl records."""
    points, fields = [], {}
    try:
        for line, obj in enumerate(serialize.read_jsonl(path), 1):
            if not isinstance(obj, dict):
                raise SpecError(f"{path}: line {line} is not a JSON object")
            if obj.get("kind") == "record":
                if not points:  # the first record sets the fields every record must have
                    fields = {key: [] for key in (["h"] if "h" in obj else ["metric", "two_form"])}
                points.append(obj.get("point"))
                for key, stack in fields.items():
                    stack.append(obj.get(key))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"{path}: cannot read jsonl input ({exc})") from exc
    if not points:
        raise SpecError(f"{path}: no records found (jsonl input required)")
    # Each stack is read at once; an error names the record as ``record[i]``.
    # Records are outputs, not specs: any finite value is read.
    points = require_array(points, f"{path}: point of record", 2, bound=sys.float_info.max)
    parts = {key: require_array(stack, f"{path}: {key} of record", 2, pairs=key == "h",
                                bound=sys.float_info.max)
             for key, stack in fields.items()}
    if len({part.shape for part in parts.values()}) > 1:
        raise SpecError(f"{path}: metric and two_form lengths differ")
    flat = parts["h"] if "h" in parts else parts["metric"] + 1j * parts["two_form"]
    side = math.isqrt(flat.shape[1])
    if side * side != flat.shape[1]:
        raise SpecError(f"{path}: record tensors of {flat.shape[1]} entries are not square")
    return points, flat.reshape(len(flat), side, side)


def cmd_compare(args, spec: dict):
    tol = _bounded(args.tol, "--tol", strict=False)
    (points_a, tensors_a), (points_b, tensors_b) = serialize.read_pair(
        _record_stacks, args.file_a, args.file_b
    )
    if len(points_a) != len(points_b):
        raise SpecError(f"grid mismatch: {len(points_a)} records vs {len(points_b)} records")
    if points_a.shape == points_b.shape:
        moved = np.flatnonzero(np.abs(points_a - points_b).max(axis=1) > 1e-12)
        if moved.size:
            raise SpecError(f"grid mismatch at record {moved[0]}: points differ")
    if tensors_a.shape != tensors_b.shape:
        raise SpecError(
            f"grid mismatch: tensor sides {tensors_a.shape[1]} vs {tensors_b.shape[1]}"
        )
    # Real and imaginary parts are compared apart: metric against Re h and
    # two_form against Im h in a mixed pairing, the same rule for every pair.
    diff = tensors_a - tensors_b
    per_record = np.maximum(np.abs(diff.real), np.abs(diff.imag)).max(axis=(1, 2))
    report = _report(
        [CheckResult("max-deviation", per_record.max(), tol)],
        per_record_max=per_record.tolist(),
        worst_record=int(per_record.argmax()),
    )
    return {"file_a": args.file_a, "file_b": args.file_b}, None, report


if __name__ == "__main__":
    run()

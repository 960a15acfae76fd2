import contextlib
import copy
import csv
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpt
from qpt import cli, serialize
from qpt.cli import main
from qpt.errors import require_array
from qpt.liegroup import EULER_GENERATOR_SCALE, euler_coframes, su2_spin_rep
from qpt.pullback import covariance_matrix, evaluate_at


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def group_spec(projective=True, frame=None, normalization=None, grid=None):
    spec = {
        "mode": "group",
        "rep": {"builtin": "su2", "spin": 0.5},
        "fiducial": [[1, 0], [0, 0]],
        "projective": projective,
        "grid": grid
        or {"alpha": 0.0, "beta": [0.3, 2.8, 5], "gamma": [0.3, 6.0, 5]},
    }
    if frame:
        spec["frame"] = frame
    if normalization:
        spec["normalization"] = normalization
    return spec


def qpt_env() -> dict:
    """The environment of a ``qpt`` subprocess: this checkout's package first
    on the path, and a buffered stdout, as in a shell pipeline."""
    src = str(Path(qpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def processes_naming(marker: str) -> list[int]:
    """The live processes whose command line holds ``marker``: a forked
    worker has its parent's command line."""
    pids = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        with contextlib.suppress(OSError):
            if marker.encode() in cmdline.read_bytes():
                pids.append(int(cmdline.parent.name))
    return pids


def records_of(path):
    return [o for o in serialize.read_jsonl(path) if o["kind"] == "record"]


def report_of(path):
    reports = [o for o in serialize.read_jsonl(path) if o["kind"] == "report"]
    assert len(reports) == 1
    return reports[0]


def test_group_run_counts_and_rank(tmp_path):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    records = records_of(str(out))
    assert len(records) == 25
    for rec in records:
        metric = np.asarray(rec["metric"]).reshape(3, 3)
        assert np.linalg.matrix_rank(metric, tol=1e-10) == 2


@pytest.mark.parametrize("normalization", ["display", "generator"])
@pytest.mark.parametrize("frame", ["right", "left"])
def test_group_records_round_trip_exactly(tmp_path, frame, normalization):
    # The grid is evaluated as one stacked contraction; every record must
    # equal the single-point evaluation bit for bit.
    spec = write_spec(
        tmp_path, "g.json", group_spec(frame=frame, normalization=normalization)
    )
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    rep = su2_spin_rep(0.5)
    tensor = covariance_matrix(rep, [1, 0], projective=True)
    scale = EULER_GENERATOR_SCALE if normalization == "generator" else 1.0
    for rec in records_of(str(out)):
        coframe = euler_coframes(rec["point"], frame=frame) * scale
        expected = evaluate_at(tensor, coframe)
        assert rec["metric"] == [float(x) for x in expected.metric.reshape(-1)]
        assert rec["two_form"] == [float(x) for x in expected.two_form.reshape(-1)]


@pytest.mark.parametrize("projective", [False, True], ids=["linear", "projective"])
@pytest.mark.parametrize("frame", ["right", "left"])
def test_generator_records_are_display_records_over_four(tmp_path, frame, projective):
    # Generator normalisation halves each coframe, and halving is exact, so
    # every entry of a generator-normalised record is the display entry / 4,
    # bit for bit, even for a generic complex fiducial.
    grid = {"alpha": [0.2, 5.9, 3], "beta": [0.3, 2.8, 4], "gamma": [0.1, 6.0, 5]}
    fiducial = [[0.3, -0.7], [1.1, 0.4], [-0.2, 0.9], [0.6, 0.05]]
    stacks = {}
    for normalization in ("display", "generator"):
        spec = {**group_spec(projective, frame, normalization, grid), "rep": {"builtin": "su2", "spin": 1.5},
                "fiducial": fiducial}
        out = tmp_path / f"{normalization}.jsonl"
        assert main(["group", "--spec", write_spec(tmp_path, "g.json", spec), "--out", str(out)]) == 0
        records = records_of(str(out))
        assert len(records) == 60
        stacks[normalization] = np.array([[rec["metric"], rec["two_form"]] for rec in records])
    assert np.abs(stacks["display"]).max() > 0.1
    assert np.array_equal(stacks["generator"], stacks["display"] / 4)


def test_group_runs_deterministic(tmp_path):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out1)]) == 0
    assert main(["group", "--spec", spec, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compare_self_is_zero(tmp_path, capsys):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.jsonl"
    main(["group", "--spec", spec, "--out", str(out)])
    assert main(["compare", str(out), str(out), "--tol", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["checks"][0]["residual"] == 0.0


def test_compare_orbit_pullback_against_spectral(tmp_path, capsys):
    grid = {"alpha": 0.0, "beta": [0.3, 2.8, 5], "gamma": [0.3, 6.0, 5]}
    g_spec = write_spec(
        tmp_path, "g.json", group_spec(frame="left", normalization="generator", grid=grid)
    )
    q_spec = write_spec(
        tmp_path,
        "q.json",
        {
            "mode": "qgt",
            "hamiltonian": {
                "builtin": "orbit",
                "rep": {"builtin": "su2", "spin": 0.5},
                "direction": [0, 0, 1],
            },
            "grid": grid,
        },
    )
    g_out, q_out = tmp_path / "g.jsonl", tmp_path / "q.jsonl"
    assert main(["group", "--spec", g_spec, "--out", str(g_out)]) == 0
    assert main(["qgt", "--spec", q_spec, "--out", str(q_out)]) == 0
    assert main(["compare", str(g_out), str(q_out), "--tol", "1e-8"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["checks"][0]["residual"] <= 1e-8


def test_runtime_commands_do_not_need_scipy(tmp_path):
    # SciPy is a test dependency only, and no command loads numpy.random or
    # numpy.polynomial, whose imports cost more than some commands' work.
    # A fresh interpreter in which any import of them raises runs group,
    # qgt, compare, weyl and verify on group (su2 and heisenberg) and Weyl
    # targets.
    grid = {"alpha": 0.0, "beta": [0.3, 2.8, 3], "gamma": [0.3, 6.0, 3]}
    g_spec = write_spec(tmp_path, "g.json", group_spec(frame="left", normalization="generator", grid=grid))
    orbit = {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 0.5}, "direction": [0, 0, 1]}
    q_spec = write_spec(tmp_path, "q.json", {"mode": "qgt", "hamiltonian": orbit, "grid": grid})
    v_spec = write_spec(tmp_path, "v.json", {
        "mode": "verify", "target": "group", "rep": {"builtin": "su2", "spin": 0.5},
        "fiducial": [[1, 0], [0, 0]], "grid": grid,
    })
    h_spec = write_spec(tmp_path, "h.json", {
        "mode": "verify", "target": "group", "rep": {"builtin": "heisenberg", "modes": 2, "cutoff": 8},
        "fiducial": [[1, 0]] + [[0, 0]] * 63, "grid": grid,
    })
    w_spec = write_spec(tmp_path, "w.json", {"mode": "verify", "target": "weyl", "modes": 2, "cutoff": 8})
    out = tmp_path / "out"
    runs = [
        ["group", "--spec", g_spec, "--out", f"{out}.g"],
        ["qgt", "--spec", q_spec, "--out", f"{out}.q"],
        ["compare", f"{out}.g", f"{out}.q", "--tol", "1e-8", "--out", f"{out}.c"],
        ["weyl", "--modes", "2", "--cutoff", "8", "--out", f"{out}.w"],
        ["verify", "--spec", v_spec, "--out", f"{out}.v"],
        ["verify", "--spec", h_spec, "--out", f"{out}.h"],
        ["verify", "--spec", w_spec, "--out", f"{out}.vw"],
    ]
    script = (
        "import sys\n"
        "for name in ('scipy', 'numpy.random', 'numpy.polynomial'):\n"
        "    sys.modules[name] = None  # any import of it or a submodule raises\n"
        "import qpt, qpt.cli\n"
        f"assert [qpt.cli.main(argv) for argv in {runs!r}] == [0] * {len(runs)}\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=qpt_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def loaded_by(script: str) -> set[str]:
    """The ``qpt`` submodules, and numpy if so, that ``script`` leaves loaded
    in a fresh interpreter that writes no bytecode, as the benchmark's."""
    report = "\nimport sys\nprint(*[m for m in sys.modules if m.startswith('qpt.') or m == 'numpy'])\n"
    done = subprocess.run([sys.executable, "-c", script + report], env={**qpt_env(), "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {name.removeprefix("qpt.") for name in done.stdout.split()}


def test_each_command_loads_only_its_modules(tmp_path):
    # ``import qpt`` compiles nothing more, and each command only the
    # modules it uses: a source file loaded is a source file compiled.
    assert loaded_by("import qpt") == set()
    g_spec = write_spec(tmp_path, "g.json", group_spec())
    q_spec = write_spec(tmp_path, "q.json", {
        "mode": "qgt", "hamiltonian": {"builtin": "bloch"}, "grid": {"theta": [0.3, 2.8, 3], "phi": 0.5},
    })
    out = tmp_path / "out"

    def command(*argv):
        return loaded_by(f"import qpt.cli\nassert qpt.cli.main({list(argv)!r}) == 0")

    group = command("group", "--spec", g_spec, "--out", f"{out}.g")
    assert {"liegroup", "pullback", "serialize"} <= group
    assert not group & {"qgt", "weyl", "checks"}
    compare = command("compare", f"{out}.g", f"{out}.g", "--out", f"{out}.c")
    assert not compare & {"liegroup", "pullback", "qgt", "weyl", "fock", "hilbert", "checks"}
    qgt = command("qgt", "--spec", q_spec, "--out", f"{out}.q")
    assert "qgt" in qgt and not qgt & {"weyl", "checks"}
    weyl = command("weyl", "--modes", "1", "--cutoff", "8", "--out", f"{out}.w")
    assert {"weyl", "checks"} <= weyl and "qgt" not in weyl
    # A submodule is an attribute of the package, loaded on first use.
    liegroup = loaded_by("import qpt\nassert qpt.liegroup.su2_spin_rep(0.5).dim == 2")
    assert "liegroup" in liegroup and not liegroup & {"pullback", "qgt", "weyl", "checks"}
    # Only the functions that build a pulled-back tensor import qpt.pullback.
    setup = loaded_by("import qpt\nqpt.build_weyl(2, 8)\nqpt.heisenberg_rep(2, 8)")
    assert {"weyl", "liegroup", "fock"} <= setup and not setup & {"pullback", "checks", "qgt"}


def test_public_names_resolve_from_the_package():
    namespace = {}
    exec("from qpt import *", namespace)
    assert set(qpt.__all__) <= set(namespace) and set(qpt.__all__) <= set(dir(qpt))
    assert all(getattr(qpt, name) is namespace[name] for name in qpt.__all__)
    assert qpt.CheckResult is qpt.checks.CheckResult and qpt.conventions is qpt.checks.conventions
    assert isinstance(qpt.__version__, str)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(qpt, "no_such_name")
    # The parser's frame names are the coframes' own.
    assert cli.FRAMES == (qpt.liegroup.RIGHT_INVARIANT, qpt.liegroup.LEFT_INVARIANT)


def test_compare_grid_mismatch(tmp_path):
    spec_a = write_spec(tmp_path, "a.json", group_spec())
    spec_b = write_spec(
        tmp_path,
        "b.json",
        group_spec(grid={"alpha": 0.0, "beta": [0.3, 2.8, 4], "gamma": [0.3, 6.0, 4]}),
    )
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["group", "--spec", spec_a, "--out", str(out_a)])
    main(["group", "--spec", spec_b, "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b)]) == 2


GOOD_RECORD = '{"kind": "record", "point": [0.0], "metric": [1.0], "two_form": [0.0]}\n'
QGT_RECORD = '{"kind": "record", "point": [0.0], "h": [[1, 0], [0, 0], [0, 0], [1, 0]], "gap": 1.0}\n'


@pytest.mark.parametrize(
    "content, where",
    [
        ("{not json\n", "cannot read"),
        ("[1, 2]\n", "line 1"),
        (GOOD_RECORD + '{"kind": "record", "metric": [1.0], "two_form": [0.0]}\n', "point of record[1]"),
        (GOOD_RECORD + '{"kind": "record", "point": [0.0], "metric": [1.0]}\n', "two_form of record[1]"),
        (GOOD_RECORD + '{"kind": "record", "point": [0.0], "metric": ["x"], "two_form": [0.0]}\n',
         "metric of record[1][0]"),
        (QGT_RECORD + '{"kind": "record", "point": [0.0], "h": [[1, 0], [0, 0], [0, 0]], "gap": 1.0}\n',
         "h of record[1]"),
    ],
    ids=["not-json", "not-object", "no-point", "no-two-form", "string-entry", "h-length"],
)
def test_compare_malformed_input_is_spec_error(tmp_path, capsys, content, where):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content)
    assert main(["compare", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and where in err


def test_compare_h_deviation_is_max_of_parts(tmp_path, capsys):
    # Both parts of h differ, by 3e-9 and 4e-9: the deviation is the larger
    # part, 4e-9, as for metric and two_form, not the modulus 5e-9.
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(QGT_RECORD)
    b.write_text(QGT_RECORD.replace("[0, 0], [1, 0]]", "[0, 0], [1.000000003, 4e-09]]"))
    assert main(["compare", str(a), str(b), "--tol", "4.5e-9"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["per_record_max"] == [pytest.approx(4e-9, abs=1e-18)]


def test_compare_names_its_worst_record(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(GOOD_RECORD * 3)
    b.write_text(GOOD_RECORD + GOOD_RECORD.replace("[1.0]", "[1.5]") + GOOD_RECORD.replace("[1.0]", "[1.25]"))
    assert main(["compare", str(a), str(b), "--tol", "1"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["per_record_max"] == [0.0, 0.5, 0.25]
    assert report["worst_record"] == 1


def test_compare_detects_deviation(tmp_path):
    spec_a = write_spec(tmp_path, "a.json", group_spec(projective=True))
    spec_b = write_spec(tmp_path, "b.json", group_spec(projective=False))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["group", "--spec", spec_a, "--out", str(out_a)])
    main(["group", "--spec", spec_b, "--out", str(out_b)])
    assert main(["compare", str(out_a), str(out_b), "--tol", "1e-10"]) == 4


def test_weyl_run_report(tmp_path):
    out = tmp_path / "w.jsonl"
    assert main(["weyl", "--modes", "1", "--cutoff", "16", "--out", str(out)]) == 0
    report = report_of(str(out))
    names = {c["name"] for c in report["checks"]}
    assert "re-part-half-identity" in names
    assert report["pass"] is True
    rec = records_of(str(out))[0]
    np.testing.assert_allclose(
        np.asarray(rec["metric"]).reshape(2, 2), np.eye(2) / 2, atol=1e-14
    )


def test_weyl_lagrangian_flag(tmp_path):
    out = tmp_path / "w.jsonl"
    assert main(
        ["weyl", "--modes", "1", "--cutoff", "8", "--lagrangian", "1,0", "--out", str(out)]
    ) == 0
    rec = records_of(str(out))[0]
    np.testing.assert_allclose(rec["metric"], [0.5], atol=1e-14)
    np.testing.assert_allclose(rec["two_form"], [0.0], atol=1e-15)


def test_weyl_rejects_non_lagrangian(tmp_path):
    out = tmp_path / "w.jsonl"
    code = main(
        ["weyl", "--modes", "1", "--cutoff", "8", "--lagrangian", "1,0;0,1", "--out", str(out)]
    )
    assert code == 3


def test_qgt_run(tmp_path):
    spec = write_spec(
        tmp_path,
        "q.json",
        {
            "mode": "qgt",
            "hamiltonian": {"builtin": "bloch"},
            "grid": {"theta": [0.3, 2.8, 4], "phi": [0.0, 6.0, 4]},
        },
    )
    out = tmp_path / "q.jsonl"
    assert main(["qgt", "--spec", spec, "--out", str(out)]) == 0
    records = records_of(str(out))
    assert len(records) == 16
    for rec in records:
        h = require_array(rec["h"], "$.h", 1, pairs=True).reshape(2, 2)
        assert rec["gap"] == pytest.approx(2.0, abs=1e-12)
        assert np.abs(h - h.conj().T).max() <= 1e-12


def test_qgt_degenerate_refusal(tmp_path):
    spec = write_spec(
        tmp_path,
        "q.json",
        {
            "mode": "qgt",
            "hamiltonian": {
                "affine": {
                    "h0": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    "terms": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
                }
            },
            "grid": {"x": [0.0, 0.0, 1]},
        },
    )
    assert main(["qgt", "--spec", spec, "--out", str(tmp_path / "q.jsonl")]) == 3


def test_verify_group(tmp_path):
    spec = write_spec(
        tmp_path,
        "v.json",
        {
            "mode": "verify",
            "target": "group",
            "rep": {"builtin": "su2", "spin": 0.5},
            "fiducial": [[1, 0], [0, 0]],
            "grid": {"alpha": 0.0, "beta": [0.3, 2.8, 5], "gamma": [0.3, 6.0, 5]},
        },
    )
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    report = report_of(str(out))
    assert report["pass"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "closure",
        "maurer-cartan",
        "two-form-closedness",
        "equivariance",
        "orbit-vs-spectral",
    }


def test_verify_weyl(tmp_path):
    spec = write_spec(
        tmp_path, "v.json", {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 16}
    )
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    assert report_of(str(out))["pass"] is True


def test_verify_qgt_builtin_extras(tmp_path):
    spec = write_spec(
        tmp_path,
        "v.json",
        {
            "mode": "verify",
            "target": "qgt",
            "hamiltonian": {"builtin": "landau_zener", "delta": 1.0},
            "grid": {"lam": [-0.5, 0.5, 5]},
        },
    )
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 0
    names = {c["name"] for c in report_of(str(out))["checks"]}
    assert "landau-zener-value" in names
    assert "landau-zener-gap-scaling" in names


def test_verify_empty_grid_is_spec_error(tmp_path):
    spec = write_spec(
        tmp_path,
        "v.json",
        {
            "mode": "verify",
            "target": "group",
            "rep": {"builtin": "su2", "spin": 0.5},
            "fiducial": [[1, 0], [0, 0]],
            "grid": {},
        },
    )
    assert main(["verify", "--spec", spec]) == 2


def test_zero_fiducial_is_refusal(tmp_path):
    spec = write_spec(
        tmp_path,
        "g.json",
        {
            "mode": "group",
            "rep": {"builtin": "su2", "spin": 0.5},
            "fiducial": [[0, 0], [0, 0]],
            "grid": {"alpha": 0.0, "beta": [0.3, 2.8, 3], "gamma": [0.3, 6.0, 3]},
        },
    )
    assert main(["group", "--spec", spec, "--out", str(tmp_path / "g.jsonl")]) == 3


@pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 1e200, 1e-200],
                         ids=["2**600", "2**-600", "1e200", "1e-200"])
def test_fiducial_scale_leaves_the_records(tmp_path, capsys, scale):
    # Far from 1, the squares of the entries overflow or underflow, but the
    # norm must not: a power-of-two scale leaves every byte as it was, the
    # header included, and a decimal one every value to rounding.
    outputs = []
    for factor in (1.0, scale):
        fiducial = [[factor, 0.0], [0.5 * factor, -0.25 * factor]]
        spec = write_spec(tmp_path, "g.json", dict(group_spec(projective=False), fiducial=fiducial))
        outputs.append(tmp_path / f"g{len(outputs)}.jsonl")
        assert main(["group", "--spec", spec, "--out", str(outputs[-1])]) == 0
    if np.frexp(scale)[0] == 0.5:
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
    else:
        assert main(["compare", *map(str, outputs), "--tol", "1e-15"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["pass"]


def test_malformed_spec_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["group", "--spec", str(bad)]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        group_spec(projective="no"),
        {"mode": "weyl", "modes": 1, "cutoff": 8, "projective": "no"},
    ],
    ids=["group", "weyl"],
)
def test_non_boolean_projective_is_spec_error(tmp_path, capsys, payload):
    spec = write_spec(tmp_path, "s.json", payload)
    out = tmp_path / "s.jsonl"
    assert main([payload["mode"], "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: at $.projective")
    assert not out.exists()


@pytest.mark.parametrize("value", ["two", 1.7, True], ids=["string", "float", "bool"])
@pytest.mark.parametrize("field", ["modes", "cutoff"])
@pytest.mark.parametrize("command", ["weyl", "verify"])
def test_non_integer_weyl_size_is_spec_error(tmp_path, capsys, command, field, value):
    payload = {"mode": command, "modes": 1, "cutoff": 8, field: value}
    if command == "verify":
        payload["target"] = "weyl"
    spec = write_spec(tmp_path, "s.json", payload)
    out = tmp_path / "s.jsonl"
    assert main([command, "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: at $.{field}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["group", "weyl", "qgt", "verify", "compare"])
def test_output_in_missing_directory_is_spec_error(tmp_path, capsys, monkeypatch, command):
    # The output is resolved before the handler runs: no command does any
    # work, or reads its inputs, towards an output it cannot write.
    if command == "compare":
        record = tmp_path / "r.jsonl"
        record.write_text(GOOD_RECORD)
        argv = ["compare", str(record), str(record)]
    else:
        argv = runnable_argv(tmp_path, command)
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args, spec: pytest.fail("handler ran"))
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.jsonl")]) == 2
    assert "no such directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_csv_output_is_refused_for_verify(tmp_path, capsys):
    # verify writes a report and no records, so it has no CSV form.
    payload = {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 8, "output": {"format": "csv"}}
    assert main(["verify", "--spec", write_spec(tmp_path, "v.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: at $.output.format:")
    assert captured.out == ""


def test_weyl_run_builds_heisenberg_rep_once(tmp_path, monkeypatch):
    import qpt.liegroup
    import qpt.weyl

    original = qpt.liegroup.heisenberg_rep
    calls = []

    def counting(modes, cutoff):
        calls.append((modes, cutoff))
        return original(modes, cutoff)

    monkeypatch.setattr(qpt.liegroup, "heisenberg_rep", counting)
    monkeypatch.setattr(qpt.weyl, "heisenberg_rep", counting)
    out = tmp_path / "w.jsonl"
    assert main(["weyl", "--modes", "1", "--cutoff", "6", "--out", str(out)]) == 0
    assert calls.count((1, 6)) == 1


def test_mode_mismatch(tmp_path):
    spec = write_spec(tmp_path, "w.json", {"mode": "weyl", "modes": 1, "cutoff": 8})
    assert main(["group", "--spec", spec]) == 2


def test_bad_grid_count(tmp_path):
    spec = write_spec(
        tmp_path,
        "g.json",
        group_spec(grid={"alpha": 0.0, "beta": [0.3, 2.8, 0], "gamma": [0.3, 6.0, 3]}),
    )
    assert main(["group", "--spec", spec]) == 2


def test_inline_grid_flag(tmp_path):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.jsonl"
    code = main(
        [
            "group",
            "--spec",
            spec,
            "--grid",
            "alpha=0.0,beta=0.3:2.8:2,gamma=0.3:6.0:2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(records_of(str(out))) == 4


@pytest.mark.parametrize("grid", ["alpha=0:1:2,beta=1:2:2,gamma=0:1:2,beta=5", "alpha=0,alpha =1"])
def test_repeated_inline_grid_axis_is_spec_error(tmp_path, capsys, grid):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad grid chunk") and "is given twice" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"mode": "group", "mode": "group"}', "mode"),
        ('{"mode": "group", "grid": {"alpha": 0, "beta": 1, "gamma": 0, "beta": 2}}', "beta"),
    ],
    ids=["top-level", "nested"],
)
def test_repeated_spec_key_is_spec_error(tmp_path, capsys, text, key):
    spec = tmp_path / "g.json"
    spec.write_text(text)
    assert main(["group", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: spec file repeats the key {key!r} in one object\n"


def test_csv_export(tmp_path):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.csv"
    assert main(["group", "--spec", spec, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 26  # header row + 25 records
    assert lines[0].split(",")[:3] == ["x0", "x1", "x2"]
    assert len(lines[1].split(",")) == 3 + 9 + 9


AFFINE_SPEC = {
    "mode": "qgt",
    "hamiltonian": {"affine": {"h0": [[[1, 0]]], "terms": [[[[0.5, 0]]]]}},
    "grid": {"x": [0, 1, 5]},
}


@pytest.fixture
def two_workers(monkeypatch):
    """Records in chunks of ``n`` with a forked second encoder whenever there
    is more than one chunk, whatever the CPU count of the machine."""
    monkeypatch.setattr(serialize, "_second_worker", lambda n_chunks: n_chunks > 1)
    return lambda n: monkeypatch.setattr(serialize, "CHUNK_RECORDS", n)


def assert_no_child_left(pid):
    assert os.getpid() == pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_lines_are_dump_line(text, records):
    # Every float re-parses exactly, so dump_line of the parsed object is the
    # line that per-record json encoding would have written.
    lines = text.splitlines()
    assert len([line for line in lines if '"kind": "record"' in line]) == records
    for line in lines:
        assert serialize.dump_line(json.loads(line)) == line


def assert_rows_are_csv_writer(text, records):
    rows = list(csv.reader(io.StringIO(text)))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(rows[0])
    writer.writerows([[float(x) for x in row] for row in rows[1:]])
    assert len(rows) == records + 1
    assert text == expected.getvalue()


@pytest.mark.parametrize("chunk", [25, 13, 4], ids=["1-chunk", "2-chunks", "7-chunks"])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_group_records_equal_per_record_encoding(tmp_path, two_workers, chunk, fmt):
    two_workers(chunk)
    pid = os.getpid()
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / f"g.{fmt}"
    assert main(["group", "--spec", spec, "--out", str(out), "--format", fmt]) == 0
    assert_no_child_left(pid)
    check = assert_lines_are_dump_line if fmt == "jsonl" else assert_rows_are_csv_writer
    check(out.read_bytes().decode(), 25)
    two_workers(10**6)
    one = tmp_path / f"one.{fmt}"
    assert main(["group", "--spec", spec, "--out", str(one), "--format", fmt]) == 0
    assert out.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_qgt_non_finite_gap_to_stdout(tmp_path, capsys, two_workers, fmt):
    # A one-level family has no gap: JSON spells it Infinity, CSV inf.
    two_workers(2)
    pid = os.getpid()
    spec = write_spec(tmp_path, "q.json", AFFINE_SPEC)
    assert main(["qgt", "--spec", spec, "--format", fmt]) == 0
    assert_no_child_left(pid)
    text = capsys.readouterr().out
    if fmt == "jsonl":
        assert_lines_are_dump_line(text, 5)
        assert text.count('"gap": Infinity}') == 5
    else:
        assert_rows_are_csv_writer(text, 5)
        assert text.splitlines()[1] == "0.0,0.0,0.0,inf"


def write_rows(stream, columns, fmt="jsonl"):
    """``serialize.write_records`` of the rows of finished ``columns``: the
    column function hands out the rows of each chunk from its start."""
    rows = np.arange(len(next(iter(columns.values()))), dtype=float)[:, None]
    serialize.write_records(
        stream, rows,
        lambda chunk, start: {name: col[start:start + len(chunk)] for name, col in columns.items()},
        fmt,
    )


def encoded_alone(columns, fmt):
    """Each record of ``columns`` encoded on its own: ``dump_line`` of its
    dict, or ``csv.writer`` of its flattened row."""
    n = len(next(iter(columns.values())))
    if fmt == "jsonl":
        return "".join(
            serialize.dump_line({"kind": "record", **{k: v[i].tolist() for k, v in columns.items()}}) + "\n"
            for i in range(n)
        )
    out = io.StringIO()
    csv.writer(out).writerows(np.concatenate([v[i].ravel() for v in columns.values()]).tolist() for i in range(n))
    return out.getvalue()


@pytest.mark.parametrize("chunk", [9, 5, 3], ids=["1-chunk", "2-chunks", "3-chunks"])
def test_write_records_spells_floats_as_json(two_workers, chunk):
    two_workers(chunk)
    pid = os.getpid()
    rng = np.random.default_rng(3)
    columns = {"point": rng.normal(size=(9, 2)), "h": rng.normal(size=(9, 4, 2)), "gap": rng.normal(size=9)}
    columns["h"][1, 2, 1] = -0.0
    columns["gap"][[0, 4, 7]] = [np.nan, np.inf, -np.inf]
    stream = io.BytesIO()
    write_rows(stream, columns)
    assert_no_child_left(pid)
    assert stream.getvalue().decode() == encoded_alone(columns, "jsonl")


def signed_zeros():
    # One field, so the tensor part is empty.  Chunks of 4: -0.0 alone in
    # chunk 0, 0.0 alone in chunks 1 and 2, both in chunk 3.  A dedupe keyed
    # on values would merge them: -0.0 == 0.0, with equal hashes.
    h = np.ones((16, 2))
    h[0:4, 0], h[4:12, 1], h[12, :] = -0.0, 0.0, [0.0, -0.0]
    return {"h": h}


def repeated():
    # Six values, non-finite ones among them, repeated within and across chunks.
    pool = np.array([0.1, -2.5, 5e-324, np.nan, np.inf, -np.inf])
    return {"point": pool[np.arange(32).reshape(16, 2) % 6], "gap": pool[np.arange(16) % 5]}


def all_distinct():
    # Distinct rows, but the last chunk of 4 repeats the first three chunks
    # later, where the memo finds them.
    values = np.random.default_rng(5).normal(size=(16, 3))
    values[12:] = values[:4]
    return {"point": values[:, :2], "gap": values[:, 2]}


def periodic():
    # Tensor rows recur every 6 records, past a chunk of 4, as left-frame
    # group records recur once per alpha slice; no two points are equal.
    rng = np.random.default_rng(7)
    metric = rng.normal(size=(6, 2, 2))
    return {"point": rng.normal(size=(30, 3)), "metric": metric[np.arange(30) % 6]}


def non_finite_rows():
    # A row of NaN, Infinity and -Infinity recurs in every chunk of 4 beside
    # finite rows: its text, spelled in an earlier chunk, is still NaN in
    # jsonl and nan in csv.
    h = np.arange(48.0).reshape(16, 3) / 7
    h[::3] = [np.nan, np.inf, -np.inf]
    return {"point": np.arange(16.0)[:, None], "h": h}


@pytest.mark.parametrize("data", [signed_zeros, repeated, all_distinct, periodic, non_finite_rows])
@pytest.mark.parametrize("chunk, processes", [(16, 1), (4, 1), (4, 2)],
                         ids=["one-chunk", "one-process", "two-processes"])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_each_value_is_spelled_as_alone(monkeypatch, two_workers, data, chunk, processes, fmt):
    two_workers(chunk)
    if processes == 1:
        monkeypatch.setattr(serialize, "_second_worker", lambda n_chunks: False)
    pid = os.getpid()
    columns = data()
    stream = io.BytesIO()
    write_rows(stream, columns, fmt)
    assert_no_child_left(pid)
    assert stream.getvalue().decode() == encoded_alone(columns, fmt)


def test_row_memo_stores_within_its_bound(monkeypatch):
    # Chunks of 4 records, so the memo holds at most 16 rows.  Row r is
    # [r, -r]; each chunk is listed by its rows.  Every chunk stores its
    # fresh rows.
    monkeypatch.setattr(serialize, "CHUNK_RECORDS", 4)
    chunks = [[0, 1, 2, 3],
              [4, 5, 6, 7],  # no row found: stored all the same
              [0, 4, 8, 9],  # rows 0 and 4 found: 8 and 9 stored
              [10, 11, 12, 13],
              [0, 14, 15, 16],  # 17 rows would overflow: emptied, and the whole chunk stored
              [0, 17, 18, 19],
              [20, 21, 22, 23]]
    memo, sizes = {}, []
    for rows in chunks:
        columns = {"point": np.arange(4.0)[:, None], "t": np.array([[r, -r] for r in rows], dtype=float)}
        assert serialize._encode(columns, "jsonl", memo) == encoded_alone(columns, "jsonl")
        assert len(memo) <= 16
        sizes.append(len(memo))
    assert sizes == [4, 8, 10, 14, 4, 7, 11]
    assert memo == {np.array([r, -r], dtype=float).tobytes(): f', "t": [{r}.0, {-r}.0]' for r in [0, *range(14, 24)]}
    memo = {}
    columns = {"point": np.zeros((4, 1)), "t": np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])}
    assert serialize._encode(columns, "csv", memo) == "0.0,0.0,1.0\r\n0.0,-0.0,1.0\r\n" * 2
    assert sorted(memo.values()) == [",-0.0,1.0", ",0.0,1.0"]


def test_one_chunk_or_one_cpu_encodes_in_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert not serialize._second_worker(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(serialize, "CHUNK_RECORDS", 2)
    points = np.arange(10.0).reshape(5, 2)
    sizes = []
    stream = io.BytesIO()
    serialize.write_records(stream, points,
                            lambda chunk, start: sizes.append((start, len(chunk))) or {"point": chunk})
    assert sizes == [(0, 2), (2, 2), (4, 1)]  # chunk by chunk on one CPU too, never the whole grid
    assert stream.getvalue().decode() == encoded_alone({"point": points}, "jsonl")
    assert serialize.read_pair(lambda x: (x + 1,), 1, 2) == ((2,), (3,))


def _in_worker(monkeypatch, name, fail):
    """Make ``serialize.<name>`` call ``fail(original, *args)`` in a forked
    worker; this process keeps the original."""
    parent, original = os.getpid(), getattr(serialize, name)
    monkeypatch.setattr(
        serialize, name,
        lambda *args: original(*args) if os.getpid() == parent else fail(original, *args),
    )


def _raise(encode, *args):
    raise ValueError("encoder failure")


def _fail_after_writing(monkeypatch):
    # Every chunk is written and flushed, then the worker fails.
    beside = serialize._beside
    monkeypatch.setattr(serialize, "_beside", lambda here, there, *n: beside(
        here, lambda file: (there(file), file.flush(), os._exit(3)), *n))


@pytest.mark.parametrize("double", [lambda mp: _in_worker(mp, "_encode", _raise), _fail_after_writing],
                         ids=["raises", "fails-at-end"])
def test_child_failure_raises_and_is_reaped(tmp_path, capfd, two_workers, monkeypatch, double):
    # The worker fails silently, on its first chunk or after writing every
    # chunk; this process evaluates the worker's half itself, and the run
    # writes what one process writes.
    spec = write_spec(tmp_path, "g.json", group_spec())
    one = tmp_path / "one.jsonl"
    assert main(["group", "--spec", spec, "--out", str(one)]) == 0
    two_workers(4)
    double(monkeypatch)
    pid = os.getpid()
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    assert_no_child_left(pid)
    assert out.read_bytes() == one.read_bytes()
    assert capfd.readouterr().err == ""


class ClosedAfter:
    """A text stream, and its binary layer, that fails like a closed pipe
    after ``n`` writes."""

    def __init__(self, n):
        self.left = n
        self.buffer = self

    def write(self, text):
        self.left -= 1
        if self.left < 0:
            raise BrokenPipeError("stdout closed")

    def flush(self):
        pass


def test_parent_write_error_reaps_the_child(tmp_path, two_workers, monkeypatch):
    two_workers(2)
    pid = os.getpid()
    monkeypatch.setattr(sys, "stdout", ClosedAfter(0))  # the output is copied in one block
    spec = write_spec(tmp_path, "g.json", group_spec())
    assert main(["group", "--spec", spec]) == 1
    assert_no_child_left(pid)


@pytest.mark.parametrize("read", [100, 0], ids=["head-c-100", "no-reader"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, read):
    # ``qpt group ... | head -c 100``: some 4000 records, far more than a
    # pipe holds, so the command is still writing when its reader leaves.
    # With no reader at all, a short output fails only when it is flushed,
    # and must not fail again in the flush at exit.
    grid = {"alpha": 0.0, "beta": [0.3, 2.8, 40], "gamma": [0.3, 6.0, 100]}
    if read:
        argv = ["group", "--spec", write_spec(tmp_path, "g.json", group_spec(grid=grid))]
    else:
        argv = ["qgt", "--spec", write_spec(tmp_path, "q.json", AFFINE_SPEC), "--format", "csv"]
    env = qpt_env()
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "qpt.cli", *argv], env=env,
                                stdout=writer, stderr=subprocess.PIPE)
    finally:
        os.close(writer)
    try:
        if read:
            with os.fdopen(reader, "rb") as stdout:
                assert len(stdout.read(read)) == read
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("command", ["weyl", "group"])
def test_piped_output_is_the_file_output(tmp_path, command):
    # The process ends through os._exit once its streams are flushed; a pipe
    # still receives every byte that --out FILE holds.  The group grid of
    # 1600 points is two chunks, so with two CPUs a forked worker writes the
    # second.
    if command == "weyl":
        argv = ["weyl", "--modes", "2", "--cutoff", "8"]
    else:
        grid = {"alpha": 0.0, "beta": [0.3, 2.8, 40], "gamma": [0.3, 6.0, 40]}
        argv = ["group", "--spec", write_spec(tmp_path, "g.json", group_spec(grid=grid))]
    out = tmp_path / "out.jsonl"
    runs = [subprocess.run([sys.executable, "-m", "qpt.cli", *argv, "--out", target], env=qpt_env(),
                           capture_output=True, timeout=120) for target in ("-", str(out))]
    assert [(done.returncode, done.stderr) for done in runs] == [(0, b"")] * 2
    assert runs[1].stdout == b""
    assert runs[0].stdout == out.read_bytes()


def test_process_started_without_standard_output_writes_its_file(tmp_path):
    # ``qpt ... --out FILE >&-``: Python has no sys.stdout, and there is
    # nothing to flush there.
    out = tmp_path / "w.jsonl"
    argv = [sys.executable, "-m", "qpt.cli", "weyl", "--modes", "1", "--cutoff", "4", "--out", str(out)]
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=qpt_env(), stderr=subprocess.PIPE,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert report_of(str(out))["pass"] is True


@pytest.mark.parametrize("case", ["spec", "refusal", "check"])
def test_exit_code_reaches_the_caller(tmp_path, case):
    # Exit 2 and 3 with one line on stderr, and 4 with a failing report, from
    # the process as from main, with no traceback and no process left.  The
    # refusal is at x = 0, grid index 512 of 8193, in this process's first
    # chunk, while with two CPUs a forked worker evaluates the sixth to the
    # ninth.  The family, diag(x, -x, 10, 11, ...) of side 32, takes some
    # 0.1 s a chunk, so a worker left to run through its half would be seen.
    if case == "spec":
        argv, code, line = ["weyl", "--modes", "0"], 2, b"error: "
    elif case == "refusal":
        h0, term = np.zeros((2, 32, 32, 2))
        h0[range(2, 32), range(2, 32), 0] = range(10, 40)
        term[[0, 1], [0, 1], 0] = [1, -1]
        spec = {"mode": "qgt", "hamiltonian": {"affine": {"h0": h0.tolist(), "terms": [term.tolist()]}},
                "grid": {"x": [-0.5, 7.5, 8193]}}
        argv, code, line = ["qgt", "--spec", write_spec(tmp_path, "q.json", spec)], 3, b"refused: "
    else:
        spec = {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 8}
        argv, code, line = ["verify", "--spec", write_spec(tmp_path, "v.json", spec), "--tol", "1e-30"], 4, b""
    out, err = tmp_path / "out.jsonl", tmp_path / "stderr"
    with open(err, "wb") as stderr:
        # Files, not pipes: a process left behind would not hold up the run.
        done = subprocess.run([sys.executable, "-m", "qpt.cli", *argv, "--out", str(out)], env=qpt_env(),
                              stdout=subprocess.DEVNULL, stderr=stderr, timeout=120)
    assert processes_naming(str(tmp_path)) == []
    assert done.returncode == code
    text = err.read_bytes()
    if line:
        assert text.startswith(line) and text.count(b"\n") == 1
        assert not out.exists()
    else:
        assert text == b""
        assert report_of(str(out))["pass"] is False


QGT_ORBIT_SPEC = {
    "mode": "qgt",
    "hamiltonian": {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 1}, "direction": [0, 0, 1]},
    "grid": {"alpha": [0.0, 1.0, 2], "beta": [0.3, 2.8, 4], "gamma": [0.3, 6.0, 4]},
}


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_qgt_records_are_the_same_from_one_and_two_workers(tmp_path, two_workers, fmt):
    spec = write_spec(tmp_path, "q.json", QGT_ORBIT_SPEC)
    pid = os.getpid()
    outputs = []
    for chunk in (5, 10**6):  # seven chunks on two processes, then one chunk on one
        two_workers(chunk)
        out = tmp_path / f"q{chunk}.{fmt}"
        assert main(["qgt", "--spec", spec, "--out", str(out), "--format", fmt]) == 0
        assert_no_child_left(pid)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    check = assert_lines_are_dump_line if fmt == "jsonl" else assert_rows_are_csv_writer
    check(outputs[0].decode(), 32)


DEGENERATE_AT_ZERO = {
    "mode": "qgt",
    "hamiltonian": {"affine": {"h0": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                               "terms": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]}},
    "grid": {"x": [-1, 1, 9]},
}

# The middle level of diag(x, -x, 1 - x): degenerate at x = 0 (grid index 4)
# and at x = 0.5 (grid index 6).
DEGENERATE_TWICE = {
    "mode": "qgt",
    "hamiltonian": {"affine": {"h0": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                                      [[0, 0], [0, 0], [1, 0]]],
                               "terms": [[[[1, 0], [0, 0], [0, 0]], [[0, 0], [-1, 0], [0, 0]],
                                          [[0, 0], [0, 0], [-1, 0]]]]},
                    "level": 1},
    "grid": {"x": [-1, 1, 9]},
}

# 1 / gap**2 overflows at x = 0, grid index 4, though the gap 2e-160 is above
# the degeneracy floor.
NON_FINITE_AT_ZERO = {
    "hamiltonian": {"builtin": "landau_zener", "delta": 1e-160},
    "grid": {"x": [-1, 1, 9]},
}


@pytest.fixture
def column_calls(monkeypatch, tmp_path):
    """``(start, rows)`` of each call of a command's column function, in
    either process, from a log that both processes append to; each call of
    the returned function takes the calls logged since the last."""
    log = tmp_path / "columns.log"
    write_records = serialize.write_records

    def logged(stream, points, columns, fmt="jsonl"):
        def logging_columns(chunk, start):
            with open(log, "a") as fh:
                fh.write(f"{start} {len(chunk)}\n")
            return columns(chunk, start)

        write_records(stream, points, logging_columns, fmt)

    def taken():
        if not log.exists():
            return []
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        log.unlink()
        return calls

    monkeypatch.setattr(serialize, "write_records", logged)
    return taken


def assert_refused(tmp_path, capfd, argv):
    """Exit 3 with one ``refused:`` line and no traceback, no output file and
    no child process left; the line."""
    pid = os.getpid()
    out = tmp_path / "refused.jsonl"
    assert main([*argv, "--out", str(out)]) == 3
    assert_no_child_left(pid)
    err = capfd.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1
    assert not out.exists()
    return err


# x = 0 is grid index 4 of the six points from -2 to 0.5 too: in chunks of
# three, this process's half is [0, 3) and the worker's [3, 6).
AT_ZERO_IN_THE_SECOND_HALF = {"x": [-2, 0.5, 6]}


@pytest.mark.parametrize(
    "chunk, processes, spec",
    [(3, 2, dict(DEGENERATE_AT_ZERO, grid=AT_ZERO_IN_THE_SECOND_HALF)), (2, 2, DEGENERATE_AT_ZERO),
     (2, 1, DEGENERATE_AT_ZERO), (3, 2, DEGENERATE_TWICE), (2, 2, DEGENERATE_TWICE)],
    ids=["worker-chunk", "parent-chunk", "one-process", "parent-then-worker-in-chunks-of-3",
         "parent-then-worker"],
)
def test_degenerate_level_in_either_half_refuses_as_one_process(tmp_path, capfd, monkeypatch, two_workers,
                                                                 column_calls, chunk, processes, spec):
    # Degenerate x = 0 is grid index 4.  On six points it is record 1 of the
    # worker's only chunk of three, and this process's half refuses nowhere.
    # On nine points the halves are [0, 6) and [6, 9), in chunks of three or
    # of two, so x = 0 is in this process's half: record 1 of its second
    # chunk of three or record 0 of its third chunk of two, and the worker's
    # half refuses nowhere, or, for the second degenerate point x = 0.5 at
    # index 6, at record 0 of the worker's first chunk.  In one process every
    # chunk is this process's.  The first degenerate point in grid order is
    # named.
    two_workers(chunk)
    if processes == 1:
        monkeypatch.setattr(serialize, "_second_worker", lambda n_chunks: False)
    err = assert_refused(tmp_path, capfd, ["qgt", "--spec", write_spec(tmp_path, "q.json", spec)])
    assert " is degenerate within tolerance at grid index 4, point [0.0] " in err
    size = spec["grid"]["x"][2]
    calls = column_calls()
    assert calls and all(start % chunk == 0 and rows == min(chunk, size - start) for start, rows in calls)


@pytest.mark.parametrize("chunk", [3, 2], ids=["chunks-of-3", "chunks-of-2"])
def test_refusal_in_the_workers_half_names_its_grid_index(tmp_path, capfd, two_workers, column_calls, chunk):
    # x = 0 is grid index 6, the first row of the worker's half.  The worker
    # fails there silently; this process, after its own half, evaluates the
    # worker's half and refuses as one process would.
    two_workers(chunk)
    spec = dict(DEGENERATE_AT_ZERO, grid={"x": [-3, 1, 9]})
    err = assert_refused(tmp_path, capfd, ["qgt", "--spec", write_spec(tmp_path, "q.json", spec)])
    assert " is degenerate within tolerance at grid index 6, point [0.0] " in err
    assert column_calls().count((6, min(chunk, 3))) == 2  # once in each process


@pytest.mark.filterwarnings("error")  # the overflow is refused, not warned about
@pytest.mark.parametrize("command, chunk, grid",
                         [("qgt", 3, AT_ZERO_IN_THE_SECOND_HALF), ("qgt", 2, None), ("verify", 10**6, None)],
                         ids=["worker-chunk", "parent-chunk", "verify"])
def test_non_finite_tensor_is_refused(tmp_path, capfd, two_workers, command, chunk, grid):
    # x = 0 is grid index 4: on six points, record 1 of the worker's only
    # chunk of three, the halves being [0, 3) and [3, 6); on nine, record 0
    # of this process's third chunk of two, its half being [0, 6).  verify
    # takes every point in one process.
    two_workers(chunk)
    spec = {"mode": command, **NON_FINITE_AT_ZERO, **({"target": "qgt"} if command == "verify" else {})}
    if grid:
        spec["grid"] = grid
    err = assert_refused(tmp_path, capfd, [command, "--spec", write_spec(tmp_path, "q.json", spec)])
    assert err == "refused: tensor of level 0 is not finite at grid index 4, point [0.0] (gap 2.000e-160)\n"


def test_output_naming_a_directory_is_refused_before_any_work(tmp_path, capfd, column_calls):
    spec = write_spec(tmp_path, "g.json", group_spec())
    assert main(["group", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert capfd.readouterr().err == f"error: cannot write output {str(tmp_path)!r}: it is a directory\n"
    assert column_calls() == []


@pytest.mark.parametrize("target", ["file", "stdout"])
def test_failed_run_leaves_its_target_as_it_was(tmp_path, capfd, two_workers, target):
    two_workers(2)
    pid = os.getpid()
    argv = ["qgt", "--spec", write_spec(tmp_path, "q.json", DEGENERATE_AT_ZERO)]
    old = tmp_path / "old.jsonl"
    old.write_bytes(b"an earlier run\n")
    assert main(argv + (["--out", str(old)] if target == "file" else [])) == 3
    assert_no_child_left(pid)
    assert old.read_bytes() == b"an earlier run\n"
    assert capfd.readouterr().out == ""


def _fail_once():
    calls = []

    def fail(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("first evaluation fails")
        return evaluate_at(*args)

    return fail


@pytest.mark.parametrize("side", ["worker", "parent"])
def test_failure_before_ready_falls_back_to_one_process(tmp_path, capfd, two_workers, monkeypatch, column_calls,
                                                        side):
    spec = write_spec(tmp_path, "g.json", group_spec())
    two_workers(10**6)
    one = tmp_path / "one.jsonl"
    assert main(["group", "--spec", spec, "--out", str(one)]) == 0
    assert column_calls() == [(0, 25)]
    two_workers(4)
    pid = os.getpid()
    out = tmp_path / "g.jsonl"
    if side == "parent":  # this process fails on its first chunk: that raises at once
        monkeypatch.setattr(qpt.pullback, "evaluate_at", _fail_once())
        with pytest.raises(ValueError, match="first evaluation fails"):
            main(["group", "--spec", spec, "--out", str(out)])
        assert_no_child_left(pid)
        assert not out.exists()
        # Of this process's half, the chunks at rows 0, 4, 8 and 12, only the first is evaluated.
        assert [call for call in column_calls() if call[0] < 16] == [(0, 4)]
        return
    # The worker fails on its first chunk, silently; this process evaluates
    # its own half and then the worker's.
    monkeypatch.setattr(qpt.pullback, "evaluate_at", lambda *args: (
        evaluate_at(*args) if os.getpid() == pid else os._exit(7)
    ))
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    assert_no_child_left(pid)
    assert out.read_bytes() == one.read_bytes()
    assert capfd.readouterr().err == ""
    # No call sees more than one chunk.
    assert sorted(set(column_calls())) == [(lo, min(4, 25 - lo)) for lo in range(0, 25, 4)]


@pytest.mark.parametrize(
    "content, where",
    [("{not json\n", "cannot read"), (GOOD_RECORD + '{"kind": "record", "metric": [1.0], "two_form": [0.0]}\n',
                                      "point of record[1]")],
    ids=["not-json", "no-point"],
)
def test_compare_malformed_second_file_is_spec_error(tmp_path, capfd, two_workers, content, where):
    # The worker fails to read file_b silently; this process reads it again
    # and reports what one process would.
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(GOOD_RECORD * 2)
    bad.write_text(content)
    pid = os.getpid()
    assert main(["compare", str(good), str(bad)]) == 2
    assert_no_child_left(pid)
    err = capfd.readouterr().err
    assert err.startswith("error:") and str(bad) in err and where in err
    assert err.count("\n") == 1


def test_compare_reads_its_second_file_in_a_worker(tmp_path, capsys, two_workers, monkeypatch):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(QGT_RECORD * 3)
    b.write_text(QGT_RECORD + QGT_RECORD.replace("[1, 0]]", "[1.5, -0.25]]") + QGT_RECORD)
    handed = []  # whether the worker's file came back, per read
    beside = serialize._beside

    @contextlib.contextmanager
    def logged(*args):
        with beside(*args) as (result, file):
            handed.append(file is not None)
            yield result, file

    monkeypatch.setattr(serialize, "_beside", logged)
    pid = os.getpid()
    reports = []
    for worker in (True, False):
        monkeypatch.setattr(serialize, "_second_worker", lambda n_chunks: worker)
        assert main(["compare", str(a), str(b), "--tol", "1"]) == 0
        assert_no_child_left(pid)
        reports.append(capsys.readouterr().out)
    assert handed == [True, False]
    assert reports[0] == reports[1]
    assert json.loads(reports[0].splitlines()[-1])["per_record_max"] == [0.0, 0.5, 0.0]


class FakeCpus:
    """``os.sched_getaffinity`` and ``os.sched_setaffinity`` on a pretend
    machine: this thread's mask starts as ``cpus``, and each process keeps
    the masks it asked for in ``binds``.  With ``refuse`` every binding
    raises ``OSError`` and changes nothing."""

    def __init__(self, monkeypatch, cpus, refuse=False):
        self.mask, self.refuse, self.binds = set(cpus), refuse, []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(self.mask))
        monkeypatch.setattr(os, "sched_setaffinity", self.bind)

    def bind(self, pid, cpus):
        assert pid == 0  # this thread only
        self.binds.append(set(cpus))
        if self.refuse:
            raise OSError("binding refused")
        self.mask = set(cpus)


def placed_columns(cpus, fail=lambda start: None):
    """A column function whose records say which process evaluated them
    (1 for the worker), its mask as a bit field and its binding count;
    ``fail(start)`` runs first in each call."""
    pid = os.getpid()

    def columns(chunk, start):
        fail(start)
        place = [os.getpid() != pid, sum(1 << cpu for cpu in os.sched_getaffinity(0)), len(cpus.binds)]
        return {"point": chunk, "place": np.tile(np.array(place, dtype=float), (len(chunk), 1))}

    return columns


def placements(stream):
    """(worker, mask bits, bindings) of each record ``placed_columns`` wrote as csv."""
    return [tuple(int(float(x)) for x in row[-3:]) for row in csv.reader(io.StringIO(stream.getvalue().decode()))]


def test_worker_and_parent_run_on_disjoint_cpus(monkeypatch, two_workers):
    # Chunks of 2 of 9 points: the first three chunks, rows 0-5, here, and
    # the last two, rows 6-8, in the worker, which binds itself to CPU 3 and
    # this thread to CPUs 0-2.
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3})
    two_workers(2)
    pid = os.getpid()
    stream = io.BytesIO()
    serialize.write_records(stream, np.zeros((9, 1)), placed_columns(cpus), "csv")
    assert_no_child_left(pid)
    here, worker = (0, 0b0111, 1), (1, 0b1000, 1)
    assert placements(stream) == [here] * 6 + [worker] * 3
    assert cpus.mask == {0, 1, 2, 3}
    assert cpus.binds == [{0, 1, 2}, {0, 1, 2, 3}]


def test_worker_stopping_short_gives_back_the_cpus(monkeypatch, two_workers):
    # The worker fails before its second chunk, at row 8: once it is
    # reaped, this process evaluates the worker's half on every CPU.
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3})
    two_workers(2)
    pid = os.getpid()

    def stop(start):
        if os.getpid() != pid and start == 8:
            os._exit(5)

    stream = io.BytesIO()
    serialize.write_records(stream, np.zeros((9, 1)), placed_columns(cpus, stop), "csv")
    assert_no_child_left(pid)
    here, alone = (0, 0b0111, 1), (0, 0b1111, 2)
    assert placements(stream) == [here] * 6 + [alone] * 3
    assert cpus.mask == {0, 1, 2, 3}


def test_parent_failure_gives_back_the_cpus(monkeypatch, two_workers):
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3})
    two_workers(2)
    pid = os.getpid()

    def fail(start):
        if os.getpid() == pid and start == 4:
            assert os.sched_getaffinity(0) == {0, 1, 2}
            raise ValueError("parent fails")

    with pytest.raises(ValueError, match="parent fails"):
        serialize.write_records(io.BytesIO(), np.zeros((9, 1)), placed_columns(cpus, fail), "csv")
    assert_no_child_left(pid)
    assert cpus.mask == {0, 1, 2, 3}


def test_read_pair_gives_back_the_cpus(monkeypatch, two_workers):
    # The worker reads the second file on CPU 3 while this process reads
    # the first on CPUs 0-2.  When the worker fails, the second file is read
    # again here, on every CPU.
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3})
    pid = os.getpid()

    def read(name, fail=False):
        if fail and os.getpid() != pid:
            raise ValueError("worker fails")
        return (np.array([name, sum(1 << cpu for cpu in os.sched_getaffinity(0))]),)

    first, second = serialize.read_pair(read, 1, 2)
    assert_no_child_left(pid)
    assert (first[0].tolist(), second[0].tolist()) == ([1, 0b0111], [2, 0b1000])
    assert cpus.mask == {0, 1, 2, 3}
    first, second = serialize.read_pair(lambda name: read(name, fail=True), 1, 2)
    assert_no_child_left(pid)
    assert (first[0].tolist(), second[0].tolist()) == ([1, 0b0111], [2, 0b1111])
    assert cpus.mask == {0, 1, 2, 3}


def test_one_cpu_mask_binds_nothing(monkeypatch, two_workers):
    cpus = FakeCpus(monkeypatch, {0})
    two_workers(2)
    pid = os.getpid()
    stream = io.BytesIO()
    serialize.write_records(stream, np.zeros((5, 1)), placed_columns(cpus), "csv")
    assert_no_child_left(pid)
    assert placements(stream) == [(0, 1, 0)] * 4 + [(1, 1, 0)]
    assert cpus.binds == [] and cpus.mask == {0}


def test_refused_binding_writes_what_one_process_writes(tmp_path, monkeypatch, two_workers):
    spec = write_spec(tmp_path, "g.json", group_spec())
    one = tmp_path / "one.jsonl"
    two_workers(10**6)
    assert main(["group", "--spec", spec, "--out", str(one)]) == 0
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3}, refuse=True)
    two_workers(4)
    pid = os.getpid()
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    assert_no_child_left(pid)
    assert out.read_bytes() == one.read_bytes()
    assert cpus.binds == [{0, 1, 2}] and cpus.mask == {0, 1, 2, 3}


def test_worker_runs_on_a_cpu_of_its_own(two_workers):
    # The real affinity calls: the worker writes the mask it runs under to
    # its file while this thread holds its own.  With one CPU, neither is bound.
    def write_mask(file):
        file.write(json.dumps(sorted(os.sched_getaffinity(0))).encode())

    before = os.sched_getaffinity(0)
    with serialize._beside(lambda: os.sched_getaffinity(0), write_mask) as (here, file):
        theirs = set(json.loads(file.read()))
    assert os.sched_getaffinity(0) == before
    if len(before) > 1:
        assert theirs == {max(before)} and here == before - theirs
    else:
        assert theirs == here == before


def _fork_fails():
    raise OSError(errno.EAGAIN, "no process to spare")


def test_fork_failure_writes_and_reads_as_one_process(tmp_path, monkeypatch, two_workers):
    # Records and compare's reads are those of one process, on the whole mask.
    spec = write_spec(tmp_path, "g.json", group_spec())
    one = tmp_path / "one.jsonl"
    two_workers(10**6)
    assert main(["group", "--spec", spec, "--out", str(one)]) == 0
    cpus = FakeCpus(monkeypatch, {0, 1, 2, 3})
    two_workers(4)
    monkeypatch.setattr(os, "fork", _fork_fails)
    pid = os.getpid()
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == one.read_bytes()
    stream = io.BytesIO()
    serialize.write_records(stream, np.zeros((9, 1)), placed_columns(cpus), "csv")
    assert placements(stream) == [(0, 0b1111, 0)] * 9
    first, second = serialize.read_pair(lambda name: (np.array([name, os.getpid()]),), 1, 2)
    assert (first[0].tolist(), second[0].tolist()) == ([1, pid], [2, pid])
    assert cpus.binds == [] and cpus.mask == {0, 1, 2, 3}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors in /proc/self/fd")
@pytest.mark.parametrize("path", ["success", "worker-fails", "parent-fails", "fork-fails",
                                  "read-pair", "read-pair-worker-fails"])
def test_no_descriptor_or_file_is_left_behind(tmp_path, monkeypatch, two_workers, path):
    # The worker's file is closed on every path, and it never has a name.
    spool = tmp_path / "tmp"
    spool.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool))
    two_workers(2)
    pid = os.getpid()
    side = {"worker-fails": "worker", "read-pair-worker-fails": "worker", "parent-fails": "parent"}.get(path)
    if path == "fork-fails":
        monkeypatch.setattr(os, "fork", _fork_fails)

    def fail():
        if side == ("parent" if os.getpid() == pid else "worker"):
            raise ValueError(f"{side} fails")

    before = sorted(os.listdir("/proc/self/fd"))
    if path.startswith("read-pair"):
        first, second = serialize.read_pair(lambda name: fail() or (np.full(3, name),), 1.0, 2.0)
        assert (first[0].tolist(), second[0].tolist()) == ([1.0] * 3, [2.0] * 3)
    else:
        stream = io.BytesIO()
        with pytest.raises(ValueError) if side == "parent" else contextlib.nullcontext():
            serialize.write_records(stream, np.arange(9.0)[:, None], lambda chunk, start: fail() or {"x": chunk}, "csv")
        if side != "parent":
            assert stream.getvalue() == b"".join(b"%d.0\r\n" % i for i in range(9))
    assert_no_child_left(pid)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert list(spool.iterdir()) == []


def _ended(pid):
    """Whether process ``pid`` has exited: gone, or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in "ZX"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
                    or len(os.sched_getaffinity(0)) < 2, reason="needs /proc/<pid>/task/<pid>/children and two CPUs")
def test_worker_stops_soon_after_its_parent_dies(tmp_path):
    # 400,000 spin-3/2 orbit points: the worker's half takes several seconds
    # on one CPU.  It checks its parent before each chunk, so once the parent
    # is killed the worker ends within a chunk or two.
    spec = {"mode": "qgt",
            "hamiltonian": {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 1.5}, "direction": [0, 0, 1]},
            "grid": {"alpha": [0.0, 1.0, 8], "beta": [0.3, 2.8, 200], "gamma": [0.3, 6.0, 250]}}
    argv = ["qgt", "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(tmp_path / "q.jsonl")]
    proc = subprocess.Popen([sys.executable, "-m", "qpt.cli", *argv], env=qpt_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    worker = None
    try:
        deadline = time.monotonic() + 60
        while worker is None:
            assert proc.poll() is None and time.monotonic() < deadline
            worker = next(map(int, children.read_text().split()), None)
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        killed = time.monotonic()
        while not _ended(worker) and time.monotonic() - killed < 2:
            time.sleep(0.01)
        assert _ended(worker)
    finally:
        proc.kill()
        proc.wait()
        if worker is not None and not _ended(worker):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.parametrize(
    "argv",
    [["compare", "A", "A", "--tol", "nan"], ["compare", "A", "A", "--tol", "inf"],
     ["compare", "A", "A", "--tol", "-1"], ["verify", "--spec", "V", "--tol", "-1"]],
    ids=["compare-nan", "compare-inf", "compare-negative", "verify-negative"],
)
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, argv):
    records = tmp_path / "a.jsonl"
    records.write_text(GOOD_RECORD)
    spec = write_spec(tmp_path, "v.json", {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 4})
    argv = [str(records) if x == "A" else spec if x == "V" else x for x in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at ") and "tol" in err


def test_spec_tolerances_block(tmp_path):
    spec = write_spec(
        tmp_path,
        "v.json",
        {
            "mode": "verify",
            "target": "weyl",
            "modes": 1,
            "cutoff": 16,
            "tolerances": {"tol": 1e-30},
        },
    )
    out = tmp_path / "v.jsonl"
    # Capping every tolerance far below machine noise must fail the battery.
    assert main(["verify", "--spec", spec, "--out", str(out)]) == 4
    assert report_of(str(out))["pass"] is False


def test_loose_tol_cap_leaves_tighter_tolerances(tmp_path):
    # --tol caps each check's tolerance; it never loosens one.
    spec = write_spec(tmp_path, "v.json", {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 8})
    plain, capped = tmp_path / "plain.jsonl", tmp_path / "capped.jsonl"
    assert main(["verify", "--spec", spec, "--out", str(plain)]) == 0
    assert main(["verify", "--spec", spec, "--tol", "1", "--out", str(capped)]) == 0
    assert report_of(str(capped)) == report_of(str(plain))


def test_output_block_in_spec_used(tmp_path):
    target = tmp_path / "fromspec.jsonl"
    payload = group_spec()
    payload["output"] = {"path": str(target), "format": "jsonl"}
    spec = write_spec(tmp_path, "g.json", payload)
    assert main(["group", "--spec", spec]) == 0
    assert target.exists()
    assert len(records_of(str(target))) == 25


@pytest.mark.parametrize("modes, cutoff", [(3, 4), (4, 8)])
def test_weyl_run_builds_no_dense_multimode_operator(tmp_path, monkeypatch, modes, cutoff):
    import qpt.fock
    import qpt.liegroup
    import qpt.weyl

    reps, dense = [], []
    original_rep = qpt.liegroup.heisenberg_rep
    original_dense = qpt.fock.ladder_entries  # what every rep or dense operator build calls

    def counting_rep(n_modes, n_cutoff):
        reps.append(n_modes)
        return original_rep(n_modes, n_cutoff)

    def counting_dense(n_modes, n_cutoff):
        dense.append(n_modes)
        return original_dense(n_modes, n_cutoff)

    monkeypatch.setattr(qpt.liegroup, "heisenberg_rep", counting_rep)
    monkeypatch.setattr(qpt.weyl, "heisenberg_rep", counting_rep)
    monkeypatch.setattr(qpt.fock, "ladder_entries", counting_dense)
    out = tmp_path / "w.jsonl"
    argv = ["weyl", "--modes", str(modes), "--cutoff", str(cutoff), "--out", str(out)]
    assert main(argv) == 0
    assert reps and set(reps) == {1}
    assert dense and set(dense) == {1}
    (record,) = records_of(str(out))
    n = 2 * modes
    omega = np.block([[np.zeros((modes, modes)), np.eye(modes)], [-np.eye(modes), np.zeros((modes, modes))]])
    np.testing.assert_allclose(np.reshape(record["metric"], (n, n)), np.eye(n) / 2, atol=1e-14)
    np.testing.assert_allclose(np.reshape(record["two_form"], (n, n)), omega / 2, atol=1e-14)
    report = report_of(str(out))
    assert report["pass"] is True
    assert len(report["checks"]) == 8


def test_weyl_over_state_budget_is_spec_error(tmp_path, capsys):
    # Five modes fit at cutoff 4, but the defect checks need cutoff 32.
    out = tmp_path / "w.jsonl"
    assert main(["weyl", "--modes", "5", "--cutoff", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: at $.modes: the cutoff-32 defect check's Weyl system of 5 modes at cutoff 32"
    )
    assert not out.exists()


BLOCH_GRID = {"theta": [0.3, 2.8, 2], "phi": [0.0, 6.0, 2]}
ORBIT_GRID = {"alpha": 0.0, "beta": [0.3, 2.8, 2], "gamma": [0.3, 6.0, 2]}
ORBIT_FAMILY = {"builtin": "orbit", "rep": {"builtin": "su2", "spin": 0.5}, "direction": [0, 0, 1]}
SX_PAIRS = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SZ_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
# Closed and Hermitian, but its generators are linearly dependent.
DEPENDENT_REP = {"generators": [SX_PAIRS, SX_PAIRS], "structure_constants": np.zeros((2, 2, 2)).tolist()}


def affine_spec(h0, terms):
    return {"hamiltonian": {"affine": {"h0": h0, "terms": terms}}, "grid": {"x": [0, 1, 2]}}


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"hamiltonian": {"builtin": "bloch"}, "level": "x"}, "$.level"),
        ({"hamiltonian": {"builtin": "bloch", "level": "x"}}, "$.hamiltonian.level"),
        ({"hamiltonian": {"builtin": "bloch"}, "level": 7}, "$.level"),
        ({"hamiltonian": {"builtin": "bloch", "level": 7}}, "$.hamiltonian.level"),
        ({"hamiltonian": {"builtin": "bloch"}, "level": 1.0}, "$.level"),
        (
            {
                "hamiltonian": {
                    "builtin": "orbit",
                    "rep": {"builtin": "su2", "spin": "half"},
                    "direction": [0, 0, 1],
                },
                "grid": ORBIT_GRID,
            },
            "$.hamiltonian.rep.spin",
        ),
        ({"hamiltonian": dict(ORBIT_FAMILY, rep={"builtin": "su2", "spin": 1e9}), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.spin"),
        ({"hamiltonian": dict(ORBIT_FAMILY, rep={"builtin": "su2", "spin": -1}), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.spin"),
        ({"hamiltonian": dict(ORBIT_FAMILY, rep={"builtin": "su2", "spin": 0}), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.spin"),
        ({"hamiltonian": dict(ORBIT_FAMILY, rep={"builtin": "su2", "spin": 1.7}), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.spin"),
        (affine_spec([[["a", 0], [1, 0]], [[1, 0], [0, 0]]], [SZ_PAIRS]), "$.hamiltonian.affine.h0[0][0][0]"),
        (affine_spec(SX_PAIRS, [[[[1, 0]]]]), "$.hamiltonian.affine"),
        (affine_spec(SX_PAIRS, [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]]), "$.hamiltonian.affine"),
        (affine_spec(SX_PAIRS, []), "$.hamiltonian.affine"),
        (affine_spec(SX_PAIRS, 5), "$.hamiltonian.affine.terms"),
        (affine_spec(SX_PAIRS, [[[[1e400, 0], [0, 0]], [[0, 0], [-1, 0]]]]), "$.hamiltonian.affine.terms[0][0][0][0]"),
        # Finite but beyond the spec bound: each once overflowed into a
        # traceback, or into an infinite gap written with exit 0.
        ({"hamiltonian": dict(ORBIT_FAMILY, rep={"builtin": "su2", "spin": -1e308}), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.spin"),
        ({"hamiltonian": dict(ORBIT_FAMILY, direction=[0, 0, 1e308]), "grid": ORBIT_GRID},
         "$.hamiltonian.direction[2]"),
        ({"hamiltonian": dict(ORBIT_FAMILY, direction=[0, -1e308, 0]), "grid": ORBIT_GRID},
         "$.hamiltonian.direction[1]"),
        ({"hamiltonian": {"builtin": "landau_zener", "delta": 1e308}, "grid": {"x": [-1, 1, 3]}},
         "$.hamiltonian.delta"),
        ({"hamiltonian": {"builtin": "landau_zener"}, "grid": {"x": [-1, 1e308, 3]}}, "$.grid.x[1]"),
        ({"hamiltonian": dict(ORBIT_FAMILY, rep=DEPENDENT_REP, direction=[0, 1]), "grid": ORBIT_GRID},
         "$.hamiltonian.rep.generators"),
    ],
    ids=["level-string", "hamiltonian-level-string", "level-7", "hamiltonian-level-7",
         "level-float", "spin-string", "spin-1e9", "spin-negative", "spin-zero", "spin-1.7",
         "affine-h0-string", "affine-terms-shape", "affine-not-hermitian", "affine-terms-empty",
         "affine-terms-5", "affine-infinite", "spin--1e308", "direction-1e308", "direction--1e308",
         "delta-1e308", "grid-1e308", "dependent-generators"],
)
@pytest.mark.parametrize("command", ["qgt", "verify"])
def test_qgt_spec_errors_exit_2(tmp_path, capsys, command, payload, path):
    spec = {"mode": command, "grid": BLOCH_GRID, **payload}
    if command == "verify":
        spec["target"] = "qgt"
    out = tmp_path / "q.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: at {path}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "rep, message",
    [
        ({"modes": 1.7, "cutoff": 4}, "error: at $.rep.modes"),
        ({"modes": True, "cutoff": 4}, "error: at $.rep.modes"),
        ({"modes": 1, "cutoff": "4"}, "error: at $.rep.cutoff"),
        ({"modes": 0, "cutoff": 4}, "error: at $.rep.modes: modes must be a positive integer"),
        ({"modes": 1, "cutoff": 2}, "error: at $.rep.cutoff: cutoff must be at least 3"),
        ({"modes": 2, "cutoff": 33}, "error: at $.rep.modes and $.rep.cutoff: dense position/momentum"),
    ],
    ids=["modes-float", "modes-bool", "cutoff-string", "modes-zero", "cutoff-2", "over-budget"],
)
def test_heisenberg_rep_spec_errors_exit_2(tmp_path, capsys, rep, message):
    spec = {
        "mode": "verify",
        "target": "group",
        "rep": {"builtin": "heisenberg", **rep},
        "fiducial": [[1, 0], [0, 0], [0, 0], [0, 0]],
        "grid": {"x": [0, 1, 2]},
    }
    out = tmp_path / "v.jsonl"
    assert main(["verify", "--spec", write_spec(tmp_path, "v.json", spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["qgt", "verify"])
def test_orbit_rep_without_three_generators_exits_2_before_its_stack(tmp_path, capsys, monkeypatch, command):
    # heisenberg (2, 32) has four generators: refused at its spec path before
    # its 64 MiB stack is scattered for the family.
    from qpt.liegroup import LieAlgebraRep

    read = LieAlgebraRep.__getattr__
    monkeypatch.setattr(LieAlgebraRep, "__getattr__",
                        lambda rep, name: pytest.fail("stack scattered") if name == "generators" else read(rep, name))
    family = dict(ORBIT_FAMILY, rep={"builtin": "heisenberg", "modes": 2, "cutoff": 32}, direction=[0, 0, 1, 0])
    spec = {"mode": command, "hamiltonian": family, "grid": ORBIT_GRID}
    if command == "verify":
        spec["target"] = "qgt"
    out = tmp_path / "q.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: at $.hamiltonian.rep: the euler chart needs a three-generator representation\n"
    assert not out.exists()


PAULI_PAIRS = [
    SX_PAIRS,
    [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
    SZ_PAIRS,
]
PAULI_STRUCTURE = [
    [[0, 0, 0], [0, 0, 2], [0, -2, 0]],
    [[0, 0, -2], [0, 0, 0], [2, 0, 0]],
    [[0, 2, 0], [-2, 0, 0], [0, 0, 0]],
]
EXPLICIT_REP = {"generators": PAULI_PAIRS, "structure_constants": PAULI_STRUCTURE}


@pytest.mark.parametrize(
    "command, delta, grid",
    [("qgt", 1e100, [-1, 1, 3]), ("verify", 1e100, [-1, 1, 3]),
     ("verify", 1e-3, [0.5, 1, 3]), ("verify", 1e-100, [0.5, 1, 3])],
    ids=["qgt", "verify", "verify-1e-3", "verify-1e-100"],
)
def test_landau_zener_delta_at_the_bound_stays_finite(tmp_path, command, delta, grid):
    # The gap 2 * delta and the closed form 1 / (4 delta^2) of verify stay
    # finite at the largest delta a spec may give, and verify's value check,
    # relative to the closed form, passes at small delta too.  The small-delta
    # grids keep away from x = 0, where the finite-difference oracle's error
    # on a value near 1 / (4 delta^2) exceeds its absolute tolerance.
    spec = {"mode": command, "hamiltonian": {"builtin": "landau_zener", "delta": delta}, "grid": {"x": grid}}
    if command == "verify":
        spec["target"] = "qgt"
    out = tmp_path / "q.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == 0
    assert "Infinity" not in out.read_text() and "NaN" not in out.read_text()


@pytest.mark.parametrize(
    "delta, reason",
    [(0, "level 0 is degenerate within tolerance (gap 0.000e+00 < 1.000e-308)"),
     (1e-170, "tensor of level 0 is not finite (gap 2.000e-170)")],
    ids=["degenerate", "not-finite"],
)
def test_landau_zener_closed_form_refusal_names_its_check(tmp_path, capsys, delta, reason):
    # The grid holds x = 1, 1.5 and 2; the closed-form checks evaluate x = 0,
    # which is not on it, so the refusal names the check, not a grid index.
    spec = {"mode": "verify", "target": "qgt", "hamiltonian": {"builtin": "landau_zener", "delta": delta},
            "grid": {"x": [1, 2, 3]}}
    assert main(["verify", "--spec", write_spec(tmp_path, "q.json", spec)]) == 3
    err = capsys.readouterr().err
    assert err == f"refused: landau-zener-value check at x = 0, delta {float(delta)!r}: {reason}\n"


@pytest.mark.parametrize(
    "change, path",
    [
        ({"fiducial": [[1, 0], [0, 0], [0, 0]]}, "$.fiducial"),
        ({"fiducial": [["nan", 0], [0, 0]]}, "$.fiducial[0][0]"),
        ({"fiducial": [[True, 0], [0, 0]]}, "$.fiducial[0][0]"),
        ({"fiducial": [["1", 0], [0, 0]]}, "$.fiducial[0][0]"),
        ({"fiducial": [[1, 0, 5], [0, 0]]}, "$.fiducial[0]"),
        ({"rep": dict(EXPLICIT_REP, generators=[SX_PAIRS, PAULI_PAIRS[1], [[["a", 0], [0, 0]], [[0, 0], [-1, 0]]]])},
         "$.rep.generators[2][0][0][0]"),
        ({"rep": dict(EXPLICIT_REP, generators=[SX_PAIRS, PAULI_PAIRS[1], [[[True, 0], [0, 0]], [[0, 0], [-1, 0]]]])},
         "$.rep.generators[2][0][0][0]"),
        ({"rep": dict(EXPLICIT_REP, structure_constants="x")}, "$.rep.structure_constants"),
        ({"rep": dict(EXPLICIT_REP, multiplier_form=[["a", 0, 0], [0, 0, 0], [0, 0, 0]])},
         "$.rep.multiplier_form[0][0]"),
        ({"rep": {"builtin": "su2", "spin": 1e9}}, "$.rep.spin"),
        ({"rep": {"builtin": "su2", "spin": 1.7}}, "$.rep.spin"),
        ({"rep": {"builtin": "su2", "spin": -1e308}}, "$.rep.spin"),
        ({"rep": dict(EXPLICIT_REP, generators=[SX_PAIRS, PAULI_PAIRS[1], [[[1e308, 0], [0, 0]], [[0, 0], [-1, 0]]]])},
         "$.rep.generators[2][0][0][0]"),
        ({"output": {"path": 5}}, "$.output.path"),
        ({"rep": DEPENDENT_REP}, "$.rep.generators"),
    ],
    ids=["fiducial-dimension", "fiducial-nan-string", "fiducial-bool", "fiducial-string", "fiducial-triple",
         "generator-string", "generator-bool", "structure-constants-string", "multiplier-form-string",
         "spin-1e9", "spin-1.7", "spin--1e308", "generator-1e308", "output-path",
         "dependent-generators"],
)
@pytest.mark.parametrize("command", ["group", "verify"])
def test_group_spec_errors_exit_2(tmp_path, capsys, command, change, path):
    spec = dict(group_spec(), mode=command, **change)
    if command == "verify":
        spec["target"] = "group"
    out = tmp_path / "g.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "g.json", spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: at {path}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("spin, code", [(1.5, 0), (2, 2)])
def test_spin_over_dense_budget_exits_2_before_allocation(tmp_path, capsys, monkeypatch, spin, code):
    import qpt.fock
    import qpt.liegroup

    monkeypatch.setattr(qpt.fock, "MAX_DENSE_STATES", 4)
    if code:  # refused before the rep's entries are built
        monkeypatch.setattr(qpt.liegroup, "su2_entries", lambda s: pytest.fail("allocated"))
    spec = dict(group_spec(), rep={"builtin": "su2", "spin": spin}, fiducial=[[1, 0]] + [[0, 0]] * int(2 * spin))
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", write_spec(tmp_path, "g.json", spec), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: at $.rep.spin: dimension 2s+1 = 5 exceeds")
    else:
        assert len(records_of(str(out))) == 25


@pytest.mark.parametrize("spin", [0.5, 1.5, 3, 511.5])
def test_group_applies_the_su2_entries_without_a_stack(tmp_path, monkeypatch, spin):
    # group needs only the tangent vectors R_j psi, so no (3, d, d) stack is
    # formed: at spin 511.5 it would be 48 MiB.
    import qpt.liegroup

    built, rep_from_spec = [], qpt.liegroup.rep_from_spec
    monkeypatch.setattr(qpt.liegroup, "rep_from_spec", lambda *args: built.append(rep_from_spec(*args)) or built[-1])
    d = int(2 * spin + 1)
    fiducial = [[0.3 + 0.01 * k, -0.2] for k in range(d)]
    spec = dict(group_spec(), rep={"builtin": "su2", "spin": spin}, fiducial=fiducial, frame="left")
    out = tmp_path / "g.jsonl"
    assert main(["group", "--spec", write_spec(tmp_path, "g.json", spec), "--out", str(out)]) == 0
    assert len(records_of(str(out))) == 25
    assert len(built) == 1 and "generators" not in vars(built[0])


def exit_code(argv):
    """``main``'s exit code, including argparse's exit on a bad command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code



@pytest.mark.parametrize(
    "command, payload, path",
    [
        ("qgt", {"hamiltonian": {"builtin": "bloch"}, "grid": {"theta": ["x", 1, 2], "phi": 0}},
         "$.grid.theta[0]"),
        ("qgt", {"hamiltonian": {"builtin": "bloch"}, "grid": {"theta": [0.3, 1, 2], "phi": True}},
         "$.grid.phi"),
        ("qgt", {"hamiltonian": {"builtin": "landau_zener", "delta": "x"}, "grid": {"lam": [0, 1, 2]}},
         "$.hamiltonian.delta"),
        ("verify", {"hamiltonian": {"builtin": "landau_zener", "delta": "x"}, "grid": {"lam": [0, 1, 2]}},
         "$.hamiltonian.delta"),
        ("qgt", {"hamiltonian": dict(ORBIT_FAMILY, direction=[0, "z", 1]), "grid": ORBIT_GRID},
         "$.hamiltonian.direction[1]"),
        ("verify", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"fd_step": "x"}},
         "$.tolerances.fd_step"),
        ("verify", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"tol": "x"}},
         "$.tolerances.tol"),
        ("qgt", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"degeneracy_tol": "x"}},
         "$.tolerances.degeneracy_tol"),
        ("verify", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"fd_step": 0}},
         "$.tolerances.fd_step"),
        ("verify", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"fd_step": -1}},
         "$.tolerances.fd_step"),
        ("verify", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"fd_step": None}},
         "$.tolerances.fd_step"),
        ("qgt", {"hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID, "tolerances": {"degeneracy_tol": -1}},
         "$.tolerances.degeneracy_tol"),
        ("weyl", {"modes": 1, "cutoff": 8, "lagrangian": [["a", 0]]}, "$.lagrangian[0][0]"),
        ("weyl", {"modes": 1, "cutoff": 8, "lagrangian": [[True, 0]]}, "$.lagrangian[0][0]"),
        ("weyl", {"modes": 1, "cutoff": 8, "lagrangian": "nan,0"}, "$.lagrangian[0][0]"),
        ("weyl", {"modes": 1, "cutoff": 8, "lagrangian": [[1e308, 0]]}, "$.lagrangian[0][0]"),
        ("weyl", {"modes": 0, "cutoff": 8}, "$.modes"),
        ("weyl", {"modes": 3, "cutoff": 128}, "$.modes and $.cutoff"),
        ("verify", {"target": "weyl", "modes": 1, "cutoff": 2}, "$.cutoff"),
    ],
    ids=["grid-endpoint", "grid-bool", "qgt-delta", "verify-delta", "direction", "fd-step", "tol",
         "degeneracy-tol", "fd-step-zero", "fd-step-negative", "fd-step-null", "degeneracy-tol-negative",
         "lagrangian-string", "lagrangian-bool", "lagrangian-text-nan", "lagrangian-1e308", "weyl-modes-zero",
         "weyl-over-budget", "verify-weyl-cutoff-2"],
)
def test_non_numeric_spec_values_exit_2(tmp_path, capsys, command, payload, path):
    spec = {"mode": command, **payload}
    if command == "verify":
        spec.setdefault("target", "qgt")
    out = tmp_path / "s.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "s.json", spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: at {path}")
    assert not out.exists()


@pytest.mark.parametrize("count, code", [(11, 2), (10, 0)])
def test_grid_over_budget_exits_2_before_allocation(tmp_path, capsys, monkeypatch, count, code):
    import qpt.cli

    monkeypatch.setattr(qpt.cli, "MAX_GRID_POINTS", 10)
    if code:  # refused before any axis is allocated
        monkeypatch.setattr(qpt.cli.np, "linspace", lambda *args: pytest.fail("grid allocated"))
    spec = {"mode": "qgt", "hamiltonian": {"builtin": "bloch"}, "grid": {"theta": [0.3, 2.8, count], "phi": 0.5}}
    out = tmp_path / "q.jsonl"
    assert main(["qgt", "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: at $.grid: 11 points exceed")
    else:
        assert len(records_of(str(out))) == 10


def runnable_argv(tmp_path, command):
    """A command line on which ``command`` succeeds."""
    if command == "weyl":
        return ["weyl", "--modes", "1", "--cutoff", "4"]
    if command == "group":
        spec = group_spec()
    elif command == "qgt":
        spec = {"mode": "qgt", "hamiltonian": {"builtin": "bloch"}, "grid": BLOCH_GRID}
    else:
        spec = {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 8}
    return [command, "--spec", write_spec(tmp_path, f"{command}.json", spec)]


REMOVED_FLAGS = [
    ("group", "--tol", "1e-3"), ("group", "--fd-step", "1e-5"), ("group", "--degeneracy-tol", "1e-9"),
    ("weyl", "--grid", "x=0:1:2"), ("weyl", "--tol", "1e-3"), ("weyl", "--fd-step", "1e-5"),
    ("weyl", "--degeneracy-tol", "1e-9"),
    ("qgt", "--tol", "1e-3"), ("qgt", "--fd-step", "1e-5"),
    ("verify", "--degeneracy-tol", "1e-9"), ("verify", "--format", "csv"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS, ids=[f"{c}{f}" for c, f, _ in REMOVED_FLAGS])
def test_flag_no_handler_reads_exits_2(tmp_path, capsys, command, flag, value):
    out = str(tmp_path / "x.jsonl")
    assert exit_code(runnable_argv(tmp_path, command) + ["--out", out]) == 0
    assert exit_code(runnable_argv(tmp_path, command) + [flag, value, "--out", out]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_weyl_header_names_the_vacuum(tmp_path):
    # At 4 modes and cutoff 16 the vacuum has 65536 entries; the header no
    # longer lists them, so its size is that of the conventions block.
    out = tmp_path / "w.jsonl"
    assert main(["weyl", "--modes", "4", "--cutoff", "16", "--out", str(out)]) == 0
    header_line = out.read_text().splitlines()[0]
    assert json.loads(header_line)["fiducial"] == "vacuum"
    assert len(header_line) < 2048


def test_qgt_degenerate_refusal_names_grid_index(tmp_path, capsys):
    spec = {
        "mode": "qgt",
        "hamiltonian": {
            "affine": {
                "h0": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                "terms": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
            }
        },
        "grid": {"x": [-1, 1, 3]},
    }
    out = tmp_path / "q.jsonl"
    assert main(["qgt", "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == 3
    assert "at grid index 1, point [0.0]" in capsys.readouterr().err
    assert not out.exists()


# One valid spec per subcommand and verify target; every one runs with exit 0.
VALID_SPECS = {
    "group": dict(group_spec(frame="right", normalization="display", grid=ORBIT_GRID), chart="euler",
                  output={"path": "unused.jsonl", "format": "jsonl"}),
    "weyl": {"mode": "weyl", "modes": 1, "cutoff": 4, "projective": False, "lagrangian": [[1, 0]]},
    "qgt": {
        "mode": "qgt",
        "hamiltonian": {"affine": {"h0": SX_PAIRS, "terms": [SZ_PAIRS]}, "level": 0},
        "grid": {"x": [-1, 1, 2]},
        "tolerances": {"degeneracy_tol": 1e-9},
    },
    "verify-group": {
        "mode": "verify", "target": "group",
        "rep": EXPLICIT_REP,
        "fiducial": [[1, 0], [0, 0]], "grid": {"x": [0, 1, 2]},
        "tolerances": {"tol": 1e-6, "fd_step": 1e-5},
    },
    "verify-weyl": {"mode": "verify", "target": "weyl", "modes": 1, "cutoff": 4},
    "verify-qgt": {"mode": "verify", "target": "qgt", "hamiltonian": ORBIT_FAMILY, "grid": ORBIT_GRID},
}
# No integer reaches what the size budgets guard.  ``1e400`` parses to
# infinity, like ``Infinity``; ``1e308``, ``-1e308`` and ``5e-324`` are the
# ends of the finite range, beyond the bound on spec numbers or far below it.
REPLACEMENTS = [json.loads(text) for text in
                ('"x"', "true", "null", "[]", "{}", "-1", "0", "2", "1.5", "NaN", "Infinity", "1e400",
                 "1e308", "-1e308", "5e-324")]


def spec_paths(value, path=()):
    """Every path into a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from spec_paths(child, path + (key,))


def mutated(spec, path, kind, value):
    """``spec`` with the value at ``path`` replaced, deleted or wrapped in a list."""
    root = {"spec": copy.deepcopy(spec)}
    parent, key = root, "spec"
    for step in path:
        parent, key = parent[key], step
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = value if kind == "replace" else [parent[key]]
    return root.get("spec", {})


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_specs_exit_cleanly(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(VALID_SPECS)), label="spec")
    spec = VALID_SPECS[name]
    path = data.draw(st.sampled_from(list(spec_paths(spec))), label="path")
    kind = data.draw(st.sampled_from(["replace", "delete", "wrap"]), label="kind")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value") if kind == "replace" else None
    work = tmp_path_factory.mktemp("mutation")
    payload = mutated(spec, path, kind, value)
    argv = [name.split("-")[0], "--spec", write_spec(work, "s.json", payload), "--out", str(work / "o.jsonl")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

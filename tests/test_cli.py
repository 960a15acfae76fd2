import json

import numpy as np
import pytest

from qpt import serialize
from qpt.cli import main
from qpt.liegroup import EULER_GENERATOR_SCALE, euler_point, su2_coframe, su2_spin_rep
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
        coframe = su2_coframe(euler_point(*rec["point"]), frame=frame).rescaled(scale)
        expected = evaluate_at(tensor, coframe)
        assert rec["metric"] == [float(x) for x in expected.metric.reshape(-1)]
        assert rec["two_form"] == [float(x) for x in expected.two_form.reshape(-1)]


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


@pytest.mark.parametrize("content", ["{not json\n", "[1, 2]\n"], ids=["not-json", "not-object"])
def test_compare_malformed_input_is_spec_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(content)
    assert main(["compare", str(bad), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
        h = serialize.row_major_pairs_to_matrix(rec["h"], 2)
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


@pytest.mark.parametrize("command", ["group", "weyl", "compare"])
def test_output_in_missing_directory_is_spec_error(tmp_path, capsys, command):
    if command == "group":
        argv = ["group", "--spec", write_spec(tmp_path, "g.json", group_spec())]
    elif command == "weyl":
        argv = ["weyl", "--modes", "1", "--cutoff", "4"]
    else:
        record = tmp_path / "r.jsonl"
        record.write_text('{"kind": "record", "point": [0.0], "metric": [1.0], "two_form": [0.0]}\n')
        argv = ["compare", str(record), str(record)]
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error:")


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


def test_csv_export(tmp_path):
    spec = write_spec(tmp_path, "g.json", group_spec())
    out = tmp_path / "g.csv"
    assert main(["group", "--spec", spec, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 26  # header row + 25 records
    assert lines[0].split(",")[:3] == ["x0", "x1", "x2"]
    assert len(lines[1].split(",")) == 3 + 9 + 9


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
    original_dense = qpt.fock.position_momentum

    def counting_rep(n_modes, n_cutoff):
        reps.append(n_modes)
        return original_rep(n_modes, n_cutoff)

    def counting_dense(n_modes, n_cutoff):
        dense.append(n_modes)
        return original_dense(n_modes, n_cutoff)

    monkeypatch.setattr(qpt.liegroup, "heisenberg_rep", counting_rep)
    monkeypatch.setattr(qpt.weyl, "heisenberg_rep", counting_rep)
    monkeypatch.setattr(qpt.fock, "position_momentum", counting_dense)
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
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


BLOCH_GRID = {"theta": [0.3, 2.8, 2], "phi": [0.0, 6.0, 2]}
ORBIT_GRID = {"alpha": 0.0, "beta": [0.3, 2.8, 2], "gamma": [0.3, 6.0, 2]}


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
    ],
    ids=["level-string", "hamiltonian-level-string", "level-7", "hamiltonian-level-7",
         "level-float", "spin-string"],
)
@pytest.mark.parametrize("command", ["qgt", "verify"])
def test_qgt_spec_errors_exit_2(tmp_path, capsys, command, payload, path):
    spec = {"mode": command, "grid": BLOCH_GRID, **payload}
    if command == "verify":
        spec["target"] = "qgt"
    out = tmp_path / "q.jsonl"
    assert main([command, "--spec", write_spec(tmp_path, "q.json", spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: at {path}")
    assert not out.exists()


@pytest.mark.parametrize(
    "rep, message",
    [
        ({"modes": 1.7, "cutoff": 4}, "error: at $.rep.modes"),
        ({"modes": True, "cutoff": 4}, "error: at $.rep.modes"),
        ({"modes": 1, "cutoff": "4"}, "error: at $.rep.cutoff"),
        ({"modes": 2, "cutoff": 33}, "error: dense position/momentum operators"),
    ],
    ids=["modes-float", "modes-bool", "cutoff-string", "over-budget"],
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

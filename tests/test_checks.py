from types import SimpleNamespace

import numpy as np
import pytest

from qpt import checks, liegroup, pullback
from qpt.checks import equivariance_residual, group_checks, projective_scale_residual, qgt_checks
from qpt.liegroup import grid_points, su2_spin_rep
from qpt.qgt import bloch_family

GENERIC = [0.3 + 0.1j, -0.2 + 0.5j, 0.7 - 0.4j, 0.1 + 0.2j]


@pytest.mark.parametrize("fiducial", [[1, 0, 0, 0], GENERIC], ids=["highest-weight", "generic"])
def test_projective_scale_residual_sees_only_the_linear_tensor(fiducial):
    rep = su2_spin_rep(1.5)
    assert projective_scale_residual(rep, fiducial) <= 1e-10
    # Negative control: the same comparison on the linear tensor.
    assert projective_scale_residual(rep, fiducial, projective=False) >= 1e-2


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_qgt_checks_eigensolves_do_not_grow_with_the_grid(monkeypatch):
    # One eigensystem for the spectral tensor, one for the oracle's centre
    # and two displaced stacks per direction: 2m + 2 whatever the grid.
    points = grid_points(np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.0, 10))
    eigh = counting(monkeypatch, np.linalg, "eigh")
    results = qgt_checks(bloch_family(), points)
    assert all(r.passed for r in results)
    assert len(eigh) <= 2 * points.shape[1] + 2


def test_group_chart_calls_do_not_grow_with_the_samples(monkeypatch):
    # The equivariance samples are one exponential stack; the
    # coframe-determinant and Maurer-Cartan samples are one coframe stack
    # plus two displaced stacks per coordinate.
    exponentials = counting(monkeypatch, liegroup, "unitary_exponential")
    coframes = counting(monkeypatch, liegroup, "euler_coframes")
    rep, fiducial = su2_spin_rep(1.5), [1, 0, 0, 0]
    counts = []
    for n_samples in (5, 40):
        exponentials.clear()
        coframes.clear()
        results = group_checks(rep, fiducial, n_points=n_samples)
        assert all(r.passed for r in results)
        equivariance_residual(rep, fiducial, n_samples=n_samples)
        counts.append((len(exponentials), len(coframes)))
    assert counts[0] == counts[1]
    assert counts[0][0] >= 1 and counts[0][1] >= 1


def test_equivariance_exponentiates_its_samples_once(monkeypatch):
    # One stack of unitaries serves the displaced states and the adjoint.
    calls = counting(monkeypatch, liegroup, "unitary_exponential")
    assert equivariance_residual(su2_spin_rep(1.5), GENERIC) <= 1e-8
    assert len(calls) == 1


def test_group_checks_evaluate_each_tensor_once(monkeypatch):
    # The linear and the projective tensor of the fiducial, and one stack
    # for the equivariance samples: every other check is handed the first two.
    calls = counting(monkeypatch, checks, "covariance_matrix")
    calls_in_pullback = counting(monkeypatch, pullback, "covariance_matrix")
    results = group_checks(su2_spin_rep(1.5), [1, 0, 0, 0])
    assert all(r.passed for r in results)
    assert "orbit-vs-spectral" in {r.name for r in results}
    assert len(calls) + len(calls_in_pullback) == 3


def test_checks_refuse_a_tensor_of_the_wrong_kind():
    rep = su2_spin_rep(1.5)
    linear = pullback.covariance_matrix(rep, GENERIC)
    with pytest.raises(ValueError, match="projective"):
        projective_scale_residual(rep, linear)
    assert projective_scale_residual(rep, linear, projective=False) >= 1e-2


@pytest.mark.parametrize("delta", [1e100, 1e-3, 1e-100])
def test_landau_zener_value_is_relative(monkeypatch, delta):
    # The value check holds at any delta, and sees a relative error of 1e-8
    # even where the value is 2.5e-201.
    assert all(r.passed for r in checks.landau_zener_checks(delta))
    spectral = checks.qgt_tensor
    monkeypatch.setattr(checks, "qgt_tensor", lambda *args, **kwargs: SimpleNamespace(
        h=spectral(*args, **kwargs).h * (1 + 1e-8)))
    value, scaling = checks.landau_zener_checks(delta)
    assert not value.passed and scaling.passed

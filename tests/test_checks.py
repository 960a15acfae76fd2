from types import SimpleNamespace

import numpy as np
import pytest

from qpt import checks, liegroup, pullback, qgt
from qpt.checks import equivariance_residual, group_checks, projective_scale_residual, qgt_checks
from qpt.liegroup import grid_points, su2_spin_rep
from qpt.qgt import QGTResult, bloch_family, finite_difference_qgt, landau_zener_family

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
    spectral = qgt.qgt_tensor
    monkeypatch.setattr(qgt, "qgt_tensor", lambda *args, **kwargs: SimpleNamespace(
        h=spectral(*args, **kwargs).h * (1 + 1e-8)))
    value, scaling = checks.landau_zener_checks(delta)
    assert not value.passed and scaling.passed


def _off_by(monkeypatch, relative=0.0, absolute=0.0):
    """Make the spectral tensor the checks see wrong by ``relative`` and
    then by ``absolute`` in every entry."""
    spectral = qgt.qgt_tensor

    def wrong(*args, **kwargs):
        right = spectral(*args, **kwargs)
        return QGTResult(right.point, right.h * (1 + relative) + absolute, right.gap)

    monkeypatch.setattr(qgt, "qgt_tensor", wrong)


def _fd_check(results):
    (check,) = [r for r in results if r.name.endswith("spectral-vs-finite-difference")]
    return check


@pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-6])
def test_finite_difference_oracle_follows_the_gap(monkeypatch, delta):
    # At x = 0 the gap is 2 delta and the tensor 1 / (4 delta**2): the step
    # shrinks with the gap and the residual is relative, so the check passes
    # on the correct tensor and fails on one off by a relative 1e-4.
    family, points = landau_zener_family(delta), np.linspace(-1.0, 1.0, 3)[:, None]
    assert _fd_check(qgt_checks(family, points)).residual < 1e-8
    _off_by(monkeypatch, relative=1e-4)
    assert not _fd_check(qgt_checks(family, points)).passed


def test_finite_difference_residual_is_taken_per_point(monkeypatch):
    # An error of 1e-5 where the tensor is about 1 fails, though the tensor
    # is 2.5e5 at the other point.
    family, points = landau_zener_family(1e-3), np.array([[0.0], [np.sqrt(5e-4)]])
    assert _fd_check(qgt_checks(family, points)).passed
    _off_by(monkeypatch, absolute=1e-5)
    assert not _fd_check(qgt_checks(family, points)).passed


def test_bloch_finite_difference_residual_is_relative(monkeypatch):
    assert _fd_check(checks.bloch_closed_form_checks()).residual < 1e-8
    _off_by(monkeypatch, relative=1e-4)
    assert not _fd_check(checks.bloch_closed_form_checks()).passed


def test_finite_difference_oracle_reads_only_the_hamiltonian():
    # The step comes from differences of H, never from the family's own
    # derivative, which the spectral sum uses.
    family = landau_zener_family(1e-3)
    family._derivative = lambda *args: pytest.fail("the oracle read the derivative")
    fd = finite_difference_qgt(family, [0.0])
    assert abs(fd.h[0, 0] - 0.25e6) / 0.25e6 < 1e-8

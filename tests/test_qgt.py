import numpy as np
import pytest
from scipy.linalg import expm

from qpt import qgt
from qpt.errors import DegenerateLevelError, NumericalRefusal, SpecError, ZeroFiducialError
from qpt.liegroup import euler_coframes, su2_spin_rep
from qpt.qgt import (
    HamiltonianFamily,
    bloch_family,
    finite_difference_qgt,
    ham_from_spec,
    landau_zener_family,
    orbit_consistency_check,
    orbit_family,
    qgt_tensor,
    spectral_state_derivative,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def constant_family(dim=3):
    h = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return HamiltonianFamily.affine(h, [np.zeros((dim, dim), dtype=complex)])


def test_derivative_constant_family_is_zero():
    fam = constant_family()
    d = spectral_state_derivative(fam, [0.3], a=0, mu=0)
    assert np.abs(d).max() == 0.0


def test_derivative_two_level_norm():
    # H(t) = cos(t) sz + sin(t) sx; at t=0 the ground-state derivative has
    # norm |<e1| sx |e2>| / gap = 1/2.
    fam = HamiltonianFamily.from_callable(
        lambda lam: np.cos(lam[0]) * SZ + np.sin(lam[0]) * SX, param_dim=1
    )
    d = spectral_state_derivative(fam, [0.0], a=0, mu=0)
    assert np.linalg.norm(d) == pytest.approx(0.5, abs=1e-9)
    # Cross-check: the gauge-aligned finite-difference tensor gives the
    # squared norm as its single entry.
    fd = finite_difference_qgt(fam, [0.0], a=0, step=1e-5)
    assert complex(fd.h[0, 0]) == pytest.approx(0.25, abs=1e-8)


def test_derivative_orthogonal_to_level():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h0 = h0 + h0.conj().T
        t1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        t1 = t1 + t1.conj().T
        fam = HamiltonianFamily.affine(h0, [t1])
        lam = [rng.uniform(-1, 1)]
        vals, vecs = np.linalg.eigh(fam.hamiltonian(lam))
        d = spectral_state_derivative(fam, lam, a=1, mu=0)
        assert abs(np.vdot(vecs[:, 1], d)) <= 1e-12


def test_qgt_bloch_closed_form():
    fam = bloch_family()
    rng = np.random.default_rng(1)
    for _ in range(10):
        th = rng.uniform(0.2, np.pi - 0.2)
        ph = rng.uniform(0, 2 * np.pi)
        res = qgt_tensor(fam, [th, ph], a=0)
        np.testing.assert_allclose(
            res.metric, 0.25 * np.diag([1, np.sin(th) ** 2]), atol=1e-8
        )
        assert res.gap == pytest.approx(2.0, abs=1e-12)


def test_qgt_gauge_term_vanishes_in_spectral_gauge():
    fam = bloch_family()
    d0 = spectral_state_derivative(fam, [1.0, 0.4], a=0, mu=0)
    vals, vecs = np.linalg.eigh(fam.hamiltonian([1.0, 0.4]))
    assert abs(np.vdot(vecs[:, 0], d0)) <= 1e-13


def test_qgt_landau_zener_value_and_scaling():
    h_full = qgt_tensor(landau_zener_family(1.0), [0.0], a=0).h[0, 0]
    assert complex(h_full) == pytest.approx(0.25, abs=1e-10)
    h_half = qgt_tensor(landau_zener_family(0.5), [0.0], a=0).h[0, 0]
    assert abs(h_half / h_full - 4.0) <= 1e-8


def test_qgt_constant_family_zero():
    res = qgt_tensor(constant_family(), [0.1], a=0)
    assert np.abs(res.h).max() == 0.0


def test_qgt_hermitian_and_psd():
    fam = bloch_family()
    res = qgt_tensor(fam, [0.9, 2.0], a=0)
    assert np.abs(res.h - res.h.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(res.metric).min() >= -1e-10


def test_finite_difference_matches_spectral():
    fam = bloch_family()
    rng = np.random.default_rng(2)
    for _ in range(5):
        point = [rng.uniform(0.3, np.pi - 0.3), rng.uniform(0, 2 * np.pi)]
        spectral = qgt_tensor(fam, point, a=0)
        fd = finite_difference_qgt(fam, point, a=0, step=1e-5)
        assert np.abs(spectral.h - fd.h).max() <= 1e-6


def test_finite_difference_constant_family():
    res = finite_difference_qgt(constant_family(), [0.2], a=0)
    assert np.abs(res.h).max() <= 1e-12


def test_gauge_invariance_under_random_phases(monkeypatch):
    # Randomising the eigensolver's phase convention must not move the
    # result: alignment plus the two-term formula removes the gauge.
    fam = bloch_family()
    point = [1.1, 0.7]
    baseline_fd = finite_difference_qgt(fam, point, a=0).h
    baseline_sp = qgt_tensor(fam, point, a=0).h

    rng = np.random.default_rng(5)
    original = qgt._fix_phase

    def scrambled(vec):
        return original(vec) * np.exp(1j * rng.uniform(0, 2 * np.pi))

    monkeypatch.setattr(qgt, "_fix_phase", scrambled)
    assert np.abs(finite_difference_qgt(fam, point, a=0).h - baseline_fd).max() <= 1e-8
    assert np.abs(qgt_tensor(fam, point, a=0).h - baseline_sp).max() <= 1e-8


def test_real_symmetric_family_has_no_two_form():
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(4, 4))
    h0 = h0 + h0.T
    t1 = rng.normal(size=(4, 4))
    t1 = t1 + t1.T
    fam = HamiltonianFamily.affine(h0.astype(complex), [t1.astype(complex)])
    res = qgt_tensor(fam, [0.37], a=0)
    assert np.abs(res.h.imag).max() <= 1e-10


def test_degenerate_level_refused():
    fam = HamiltonianFamily.affine(
        np.diag([1.0, 1.0, 2.0]).astype(complex),
        [np.zeros((3, 3), dtype=complex)],
    )
    with pytest.raises(DegenerateLevelError) as err:
        qgt_tensor(fam, [0.0], a=0)
    assert err.value.gap == pytest.approx(0.0, abs=1e-15)


def test_non_hermitian_family_rejected():
    fam = HamiltonianFamily.from_callable(
        lambda lam: np.array([[0, 1], [0, 0]], dtype=complex), param_dim=1
    )
    with pytest.raises(ValueError):
        qgt_tensor(fam, [0.0], a=0)


def test_alignment_overlap_refusal():
    fam = bloch_family()
    with pytest.raises(NumericalRefusal):
        finite_difference_qgt(fam, [1.0, 0.0], a=0, step=3.0)


def test_gap_halving_quadruples_tensor():
    base = complex(qgt_tensor(landau_zener_family(1.0), [0.0], a=0).h[0, 0])
    narrow = complex(qgt_tensor(landau_zener_family(0.5), [0.0], a=0).h[0, 0])
    assert abs(narrow / base - 4.0) <= 1e-8


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_orbit_consistency(s):
    rep = su2_spin_rep(s)
    fid = np.zeros(rep.dim, dtype=complex)
    fid[0] = 1
    assert orbit_consistency_check(rep, fid) <= 1e-8


def test_orbit_metric_scales_with_spin():
    point = np.array([0.7, 1.1, 2.0])
    metrics = {}
    for s in (0.5, 1.0):
        rep = su2_spin_rep(s)
        fid = np.zeros(rep.dim, dtype=complex)
        fid[0] = 1
        fam = orbit_family(rep, [0, 0, 1])
        metrics[s] = qgt_tensor(fam, point, a=0).metric
    np.testing.assert_allclose(metrics[1.0], 2.0 * metrics[0.5], atol=1e-8)


def test_orbit_consistency_rotated_direction():
    rep = su2_spin_rep(0.5)
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    h0 = -np.tensordot(n, rep.generators, axes=1)
    _, vecs = np.linalg.eigh(h0)
    residual = orbit_consistency_check(rep, vecs[:, 0], direction=n)
    baseline = orbit_consistency_check(rep, np.array([1, 0], dtype=complex))
    assert residual <= 1e-8
    assert abs(residual - baseline) <= 1e-8


def test_orbit_consistency_rejects_non_ground_fiducial():
    rep = su2_spin_rep(0.5)
    with pytest.raises(NumericalRefusal):
        orbit_consistency_check(rep, np.array([0, 1], dtype=complex), direction=[0, 0, 1])


@pytest.mark.parametrize("direction", [None, [0, 0, 1]])
def test_orbit_consistency_zero_fiducial_refused(direction):
    with pytest.raises(ZeroFiducialError):
        orbit_consistency_check(su2_spin_rep(1.5), np.zeros(4), direction=direction)


def test_ham_from_spec_affine():
    spec = {
        "affine": {
            "h0": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "terms": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]],
        }
    }
    fam = ham_from_spec(spec)
    np.testing.assert_allclose(fam.hamiltonian([0.0]), SX, atol=1e-15)
    np.testing.assert_allclose(fam.derivative([0.0], 0), SZ, atol=1e-15)


def test_ham_from_spec_builtins():
    assert ham_from_spec({"builtin": "bloch"}).param_dim == 2
    assert ham_from_spec({"builtin": "landau_zener", "delta": 2.0}).param_dim == 1
    fam = ham_from_spec(
        {
            "builtin": "orbit",
            "rep": {"builtin": "su2", "spin": 0.5},
            "direction": [0, 0, 1],
        }
    )
    assert fam.param_dim == 3


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"builtin": "nope"},
        {"affine": {"h0": [[[0, 0]]]}},
        "bloch",
    ],
)
def test_ham_from_spec_rejects(bad):
    with pytest.raises(SpecError):
        ham_from_spec(bad)


def test_callable_fd_derivative_matches_affine():
    h0 = SX.astype(complex)
    fam_analytic = HamiltonianFamily.affine(h0, [SZ])
    fam_fd = HamiltonianFamily.from_callable(
        lambda lam: h0 + lam[0] * SZ, param_dim=1
    )
    d_analytic = fam_analytic.derivative([0.3], 0)
    d_fd = fam_fd.derivative([0.3], 0)
    assert np.abs(d_analytic - d_fd).max() <= 1e-9


def per_point_orbit_family(rep, direction):
    """The orbit family from per-point callables: the z-y-z product by
    ``expm`` and ``dH = [dU U^-1, H]`` one direction at a time."""
    r = rep.generators
    h0 = -np.tensordot(direction, r, axes=1)

    def evaluate(lam):
        a, b, g = lam
        u = expm(1j * a * r[2] / 2) @ expm(1j * b * r[1] / 2) @ expm(1j * g * r[2] / 2)
        return u @ h0 @ u.conj().T

    def derivative(lam, mu):
        velocity = 0.5j * np.tensordot(euler_coframes(lam)[:, mu], r, axes=1)
        h = evaluate(lam)
        return velocity @ h - h @ velocity

    return HamiltonianFamily.from_callable(evaluate, param_dim=3, derivative=derivative)


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_stacked_orbit_family_matches_per_point_reference(s):
    rep = su2_spin_rep(s)
    n = np.array([0.3, -0.4, 0.866])
    points = np.random.default_rng(4).uniform([0, 0.2, 0], [4 * np.pi, np.pi - 0.2, 2 * np.pi], (30, 3))
    stacked, reference = orbit_family(rep, n), per_point_orbit_family(rep, n)
    assert np.abs(stacked.hamiltonian(points) - reference.hamiltonian(points)).max() <= 1e-13
    assert np.abs(stacked.derivative(points) - reference.derivative(points)).max() <= 1e-13
    res = qgt_tensor(stacked, points, a=0)
    ref = qgt_tensor(reference, points, a=0)
    assert res.h.shape == (30, 3, 3) and res.gap.shape == (30,)
    assert np.abs(res.h - ref.h).max() <= 1e-12
    np.testing.assert_allclose(res.gap, ref.gap, rtol=1e-13)


def test_orbit_tensor_evaluates_its_euler_elements_once(monkeypatch):
    # The spectral sum hands its H to the derivative, so one stack of
    # U(g) serves both; given no H, the derivative evaluates it itself.
    rep = su2_spin_rep(1.0)
    points = np.random.default_rng(5).uniform([0, 0.2, 0], [4 * np.pi, np.pi - 0.2, 2 * np.pi], (12, 3))
    family = orbit_family(rep, [0, 0, 1])
    # The same family with a derivative that evaluates H again.
    twice = HamiltonianFamily(family._evaluate, 3, derivative=lambda lam, h: family._derivative(lam, None))
    expected_h = qgt_tensor(twice, points).h
    expected_dh = family.derivative(points)
    calls = []
    euler_elements = qgt.euler_elements
    monkeypatch.setattr(qgt, "euler_elements", lambda *args: calls.append(1) or euler_elements(*args))
    assert np.array_equal(qgt_tensor(family, points).h, expected_h)
    assert len(calls) == 1
    assert np.array_equal(family.derivative(points, h=family.hamiltonian(points)), expected_dh)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "family, points",
    [
        (bloch_family(), [[0.4, 0.1], [1.2, 2.0], [2.5, 5.0]]),
        (landau_zener_family(0.7), [[-1.0], [0.0], [0.3]]),
        (HamiltonianFamily.from_callable(lambda lam: np.cos(lam[0]) * SZ + np.sin(lam[0]) * SX, 1),
         [[0.0], [0.5], [1.0]]),
    ],
    ids=["bloch", "landau-zener", "callable-fd"],
)
def test_stack_equals_single_points(family, points):
    stacked = qgt_tensor(family, points, a=0)
    derivs = spectral_state_derivative(family, points, a=0, mu=0)
    assert derivs.shape == (len(points), 2)
    for i, point in enumerate(points):
        single = qgt_tensor(family, point, a=0)
        assert np.abs(stacked.h[i] - single.h).max() <= 1e-15
        assert stacked.gap[i] == single.gap
        assert np.abs(derivs[i] - spectral_state_derivative(family, point, a=0, mu=0)).max() <= 1e-15
        assert np.abs(family.hamiltonian(points)[i] - family.hamiltonian(point)).max() <= 1e-15


def test_degenerate_point_of_a_stack_is_named():
    fam = HamiltonianFamily.affine(np.zeros((2, 2), dtype=complex), [SZ])
    with pytest.raises(DegenerateLevelError, match=r"grid index 1, point \[0\.0\]") as err:
        qgt_tensor(fam, [[-1.0], [0.0], [1.0]], a=0)
    assert err.value.gap == 0.0


@pytest.mark.parametrize(
    "family, points",
    [
        (bloch_family(), [[0.4, 0.1], [1.2, 2.0], [2.5, 5.0]]),
        (HamiltonianFamily.from_callable(lambda lam: np.cos(lam[0]) * SZ + np.sin(lam[0]) * SX, 1),
         [[0.0], [0.5], [1.0]]),
    ],
    ids=["bloch", "callable"],
)
def test_finite_difference_stack_equals_single_points(family, points):
    stacked = finite_difference_qgt(family, points, a=0)
    assert stacked.h.shape == (len(points), family.param_dim, family.param_dim)
    for i, point in enumerate(points):
        single = finite_difference_qgt(family, point, a=0)
        assert np.abs(stacked.h[i] - single.h).max() <= 1e-10
        assert stacked.gap[i] == single.gap


def test_alignment_refusal_names_grid_index():
    # Forward of t the level turns by (t + step)^2 - t^2 radians: one at
    # t = 0, three at t = 1, where the overlap is cos(3/2) < 0.5.
    fam = HamiltonianFamily.from_callable(
        lambda lam: np.cos(lam[0] ** 2) * SZ + np.sin(lam[0] ** 2) * SX, 1
    )
    finite_difference_qgt(fam, [0.0], a=0, step=1.0)
    with pytest.raises(NumericalRefusal, match=r"grid index 1, point \[1\.0\]"):
        finite_difference_qgt(fam, [[0.0], [1.0]], a=0, step=1.0)

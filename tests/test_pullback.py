import tracemalloc

import numpy as np
import pytest

from qpt import fock
from qpt.checks import equivariance_residual, group_checks, two_form_closedness_residual
from qpt.errors import ZeroFiducialError
from qpt.liegroup import (
    LieAlgebraRep,
    adjoint_matrix,
    euler_coframes,
    euler_elements,
    exponential_elements,
    heisenberg_rep,
    su2_spin_rep,
)
from qpt.pullback import (
    PullbackTensor,
    covariance_matrix,
    degeneracy_directions,
    evaluate_at,
    multiplier_consistency,
    split,
)

NORTH = np.array([1, 0], dtype=complex)


def brute_force_covariance(generators, psi, projective):
    """Independent oracle: explicit matrix products, no shared code path."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    n = len(generators)
    t = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            t[j, k] = psi.conj() @ generators[j] @ generators[k] @ psi
            if projective:
                mj = psi.conj() @ generators[j] @ psi
                mk = psi.conj() @ generators[k] @ psi
                t[j, k] -= mj * mk
    return t


def test_covariance_linear_pauli_north():
    rep = su2_spin_rep(0.5)
    t = covariance_matrix(rep, NORTH).coefficients
    expected = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 1]])
    np.testing.assert_allclose(t, expected, atol=1e-15)
    np.testing.assert_allclose(
        t, brute_force_covariance(rep.generators, NORTH, False), atol=1e-15
    )


def test_covariance_projective_pauli_north():
    rep = su2_spin_rep(0.5)
    t = covariance_matrix(rep, NORTH, projective=True).coefficients
    expected = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 0]])
    np.testing.assert_allclose(t, expected, atol=1e-15)
    np.testing.assert_allclose(
        t, brute_force_covariance(rep.generators, NORTH, True), atol=1e-15
    )


def test_covariance_normalizes_fiducial():
    rep = su2_spin_rep(0.5)
    t1 = covariance_matrix(rep, NORTH, projective=True).coefficients
    t2 = covariance_matrix(rep, (2 - 3j) * NORTH, projective=True).coefficients
    np.testing.assert_allclose(t2, t1, atol=1e-15)


def test_covariance_zero_fiducial():
    with pytest.raises(ZeroFiducialError):
        covariance_matrix(su2_spin_rep(0.5), [0, 0])


def test_covariance_full_isotropy_vanishes():
    # A fiducial that is an eigenvector of every generator kills the
    # projective tensor entirely.
    gens = np.array([np.diag([1.0, -1.0]).astype(complex)])
    rep = LieAlgebraRep(gens, np.zeros((1, 1, 1)))
    t = covariance_matrix(rep, NORTH, projective=True).coefficients
    np.testing.assert_allclose(t, np.zeros((1, 1)), atol=1e-15)


def test_covariance_hermitian_builtins():
    cases = [
        (su2_spin_rep(0.5), NORTH),
        (su2_spin_rep(1), np.array([0.2, 1j, -0.5])),
        (heisenberg_rep(1, 8), None),
    ]
    for rep, fid in cases:
        if fid is None:
            fid = np.zeros(rep.dim, dtype=complex)
            fid[0] = 1
        c = covariance_matrix(rep, fid).coefficients
        assert np.abs(c - c.conj().T).max() <= 1e-12


def test_split_pauli_case():
    rep = su2_spin_rep(0.5)
    metric, form = split(covariance_matrix(rep, NORTH))
    np.testing.assert_allclose(metric, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(form, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], atol=1e-15)


def test_split_trivial_cases():
    base = PullbackTensor(
        coefficients=np.diag([1.0, 2.0]).astype(complex),
        projective=False,
        fiducial=NORTH,
    )
    metric, form = split(base)
    assert np.abs(form).max() == 0
    skew = PullbackTensor(
        coefficients=1j * np.array([[0, 1], [-1, 0]], dtype=complex),
        projective=False,
        fiducial=NORTH,
    )
    metric, form = split(skew)
    assert np.abs(metric).max() == 0
    np.testing.assert_allclose(form, [[0, 1], [-1, 0]], atol=1e-15)


def test_split_rejects_non_hermitian():
    bad = PullbackTensor(
        coefficients=np.array([[0, 1], [0, 0]], dtype=complex),
        projective=False,
        fiducial=NORTH,
    )
    with pytest.raises(ValueError):
        split(bad)


def test_multiplier_consistency_su2():
    assert multiplier_consistency(su2_spin_rep(0.5), NORTH) <= 1e-12


def test_multiplier_consistency_weyl_vacuum():
    rep = heisenberg_rep(1, 8)
    vac = np.zeros(8)
    vac[0] = 1
    assert multiplier_consistency(rep, vac) <= 1e-14


def test_multiplier_consistency_negative_control():
    rep = heisenberg_rep(1, 8)
    stripped = LieAlgebraRep(
        rep.generators, rep.structure_constants, multiplier_form=None,
        validate_closure=False,
    )
    vac = np.zeros(8)
    vac[0] = 1
    assert multiplier_consistency(stripped, vac) == pytest.approx(1.0, abs=1e-12)


def test_degeneracy_directions_north():
    dirs = degeneracy_directions(su2_spin_rep(0.5), NORTH)
    assert len(dirs) == 1
    np.testing.assert_allclose(dirs[0], [0, 0, 1], atol=1e-12)


def test_degeneracy_directions_x_eigenvector():
    fid = np.array([1, 1]) / np.sqrt(2)
    dirs = degeneracy_directions(su2_spin_rep(0.5), fid)
    assert len(dirs) == 1
    np.testing.assert_allclose(dirs[0], [1, 0, 0], atol=1e-12)


def test_degeneracy_directions_residual_property():
    rep = su2_spin_rep(0.5)
    psi = NORTH
    for u in degeneracy_directions(rep, psi):
        op = np.tensordot(u, rep.generators, axes=1)
        mean = psi.conj() @ op @ psi
        assert np.linalg.norm(op @ psi - mean * psi) <= 1e-8


def test_heisenberg_target_holds_no_dense_stack():
    # The checks of a heisenberg group target take every vector from the
    # rep's entries: its 64 MiB stack at (2, 32) is never allocated, and at
    # (2, 8) the battery passes on the vacuum without scattering it.
    tracemalloc.start()
    try:
        big = heisenberg_rep(2, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "generators" not in vars(big) and peak < 8 * 2**20
    rep = heisenberg_rep(2, 8)
    results = group_checks(rep, fock.vacuum(2, 8))
    assert all(r.passed for r in results)
    assert "generators" not in vars(rep)


def test_covariance_of_entries_rep_matches_brute_force():
    rep = heisenberg_rep(2, 4)
    gens = fock.position_momentum(2, 4)
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, rep.dim)) + 1j * rng.normal(size=(3, rep.dim))
    for projective in (False, True):
        expected = np.array([brute_force_covariance(gens, fid, projective) for fid in stack])
        assert np.abs(covariance_matrix(rep, stack[0], projective).coefficients - expected[0]).max() <= 1e-13
        assert np.abs(covariance_matrix(rep, stack, projective).coefficients - expected).max() <= 1e-13


def test_degeneracy_directions_weyl_vacuum_empty():
    rep = heisenberg_rep(1, 8)
    vac = np.zeros(8)
    vac[0] = 1
    assert degeneracy_directions(rep, vac) == []


def test_evaluate_at_linear_metric():
    rep = su2_spin_rep(0.5)
    t = covariance_matrix(rep, NORTH)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a, g = rng.uniform(0, 2 * np.pi, 2)
        b = rng.uniform(0, np.pi)
        coord = evaluate_at(t, euler_coframes([a, b, g]))
        expected = np.array([[1, 0, np.cos(b)], [0, 1, 0], [np.cos(b), 0, 1]])
        np.testing.assert_allclose(coord.metric, expected, atol=1e-12)


def test_evaluate_at_projective_metric_and_form():
    rep = su2_spin_rep(0.5)
    t = covariance_matrix(rep, NORTH, projective=True)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, g = rng.uniform(0, 2 * np.pi, 2)
        b = rng.uniform(0, np.pi)
        coord = evaluate_at(t, euler_coframes([a, b, g]))
        np.testing.assert_allclose(
            coord.metric, np.diag([0, 1, np.sin(b) ** 2]), atol=1e-12
        )
        expected_form = np.zeros((3, 3))
        expected_form[1, 2] = np.sin(b)
        expected_form[2, 1] = -np.sin(b)
        np.testing.assert_allclose(coord.two_form, expected_form, atol=1e-12)


@pytest.mark.parametrize("projective", [False, True])
def test_fiducial_global_phase_leaves_no_residue(projective):
    rep = su2_spin_rep(1.5)
    e0 = np.eye(4)[0]
    plain = covariance_matrix(rep, e0, projective=projective)
    phased = covariance_matrix(rep, (0.6 + 0.8j) * e0, projective=projective)
    np.testing.assert_array_equal(phased.coefficients, plain.coefficients)


def test_evaluate_at_dimension_mismatch():
    rep = su2_spin_rep(0.5)
    t = covariance_matrix(heisenberg_rep(1, 4), [1, 0, 0, 0])
    with pytest.raises(ValueError):
        evaluate_at(t, euler_coframes([0.1, 0.2, 0.3]))


def test_orbit_state_identity():
    rep = su2_spin_rep(0.5)
    np.testing.assert_allclose(
        exponential_elements(rep, [0, 0, 0]) @ NORTH, NORTH, atol=1e-15
    )


def test_orbit_state_beta_pi():
    rep = su2_spin_rep(0.5)
    out = euler_elements(rep, [0, np.pi, 0]) @ NORTH
    # exp(1j pi sigma_y / 2)(1,0) = (0,-1); the second basis state up to sign.
    np.testing.assert_allclose(out, [0, -1], atol=1e-14)
    assert abs(np.vdot(out, np.array([0, 1]))) == pytest.approx(1, abs=1e-14)


def test_orbit_state_preserves_norm():
    rng = np.random.default_rng(2)
    rep = su2_spin_rep(1)
    fid = np.array([0.3, 1j, -2.0])
    for _ in range(5):
        out = exponential_elements(rep, rng.uniform(-2, 2, 3)) @ fid
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(fid), abs=1e-12)


def test_equivariance_under_displacement():
    for s in (0.5, 1):
        assert equivariance_residual(su2_spin_rep(s), _highest_weight(s)) <= 1e-8


def _highest_weight(s):
    fid = np.zeros(round(2 * s) + 1, dtype=complex)
    fid[0] = 1
    return fid


def test_displaced_fiducial_matches_adjoint_transport():
    rep = su2_spin_rep(0.5)
    rng = np.random.default_rng(3)
    t0 = covariance_matrix(rep, NORTH).coefficients
    u = exponential_elements(rep, rng.uniform(-1, 1, 3))
    moved = covariance_matrix(rep, u @ NORTH).coefficients
    a = adjoint_matrix(rep, u)
    np.testing.assert_allclose(moved, a @ t0 @ a.T, atol=1e-12)


def test_two_form_closed():
    t = covariance_matrix(su2_spin_rep(0.5), NORTH)
    assert two_form_closedness_residual(t, grid_shape=(8, 8)) <= 1e-6


def test_projective_metric_psd_random_fiducials():
    rng = np.random.default_rng(4)
    rep = su2_spin_rep(1)
    for _ in range(10):
        fid = rng.normal(size=3) + 1j * rng.normal(size=3)
        metric, _ = split(covariance_matrix(rep, fid, projective=True))
        assert np.linalg.eigvalsh(metric).min() >= -1e-10

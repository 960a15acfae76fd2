import numpy as np
import pytest

from scipy.linalg import expm

from qpt.checks import DEFECT_FLOOR, CheckResult, defect_growth, random_lagrangian_frames
from qpt.errors import NotLagrangianError, SpecError
from qpt.fock import symplectic_form
from qpt.liegroup import heisenberg_rep
from qpt.pullback import covariance_matrix
from qpt.weyl import (
    MAX_STATES,
    _expm,
    build_weyl,
    defect_convergence,
    displacement,
    gaussian_covariance,
    gaussian_moment_oracle,
    generator_states,
    lagrangian_restriction,
    weyl_defect,
)


def test_position_matrix_elements():
    system = build_weyl(1, 4)
    q = system.position_ops[0]
    assert q[0, 1] == pytest.approx(1 / np.sqrt(2))
    assert q[1, 0] == pytest.approx(1 / np.sqrt(2))
    assert q[1, 2] == pytest.approx(1.0)
    assert q[2, 1] == pytest.approx(1.0)


def test_system_holds_one_rep():
    system = build_weyl(2, 4)
    np.testing.assert_array_equal(system.mode_rep.generators, heisenberg_rep(1, 4).generators)
    for projective in (False, True):
        tensor = gaussian_covariance(system, projective=projective)
        np.testing.assert_array_equal(tensor.multiplier_form, symplectic_form(2))


def test_vacuum_is_annihilated():
    from qpt.fock import annihilation

    system = build_weyl(1, 6)
    vac = system.vacuum()
    assert np.linalg.norm(vac) == 1.0
    assert np.abs(annihilation(6) @ vac).max() == 0.0
    # (Q + iP)/sqrt(2) is the annihilation operator on the truncated space.
    a_op = (system.position_ops[0] + 1j * system.momentum_ops[0]) / np.sqrt(2)
    assert np.abs(a_op @ vac).max() <= 1e-15


def test_vacuum_moments():
    system = build_weyl(1, 4)
    vac = system.vacuum()
    q, p = system.position_ops[0], system.momentum_ops[0]
    assert vac @ q @ q @ vac == pytest.approx(0.5, abs=1e-14)
    assert vac @ q @ vac == pytest.approx(0.0, abs=1e-15)
    assert vac @ p @ vac == pytest.approx(0.0, abs=1e-15)


def test_build_rejects_small_cutoff():
    with pytest.raises(SpecError):
        build_weyl(1, 2)
    with pytest.raises(SpecError):
        build_weyl(0, 8)


def test_displacement_identity():
    system = build_weyl(2, 6)
    factors = displacement(system, [0, 0, 0, 0])
    assert factors.shape == (2, 6, 6)
    assert np.array_equal(factors, np.broadcast_to(np.eye(6), (2, 6, 6)))


def test_displacement_unitary():
    # |v| from 0.01 to 6 takes the exponential through up to four squarings.
    rng = np.random.default_rng(0)
    for cutoff in (8, 16, 32):
        system = build_weyl(2, cutoff)
        for size in np.geomspace(0.01, 6.0, 6):
            v = rng.normal(size=4)
            for w in displacement(system, size * v / np.linalg.norm(v)):
                np.testing.assert_allclose(w.conj().T @ w, np.eye(cutoff), atol=1e-13)


def relative_error(a, b):
    return float(np.linalg.norm(a - b, 1) / np.linalg.norm(b, 1))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_expm_matches_scipy_on_random_matrices(n):
    # 1-norms from 1e-3 to 100: theta_13 is 5.37, so the three largest take
    # the scaling-and-squaring branch, with one to five squarings.
    rng = np.random.default_rng(n)
    for norm in np.logspace(-3, 2, 11):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        assert relative_error(_expm(a), expm(a)) <= 5e-14


@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_expm_matches_scipy_on_weyl_generators(cutoff):
    rng = np.random.default_rng(cutoff)
    gens = build_weyl(1, cutoff).mode_rep.generators
    for size, angle in zip(np.geomspace(0.01, 6.0, 12), rng.uniform(0, 2 * np.pi, 12)):
        a = 1j * size * (np.cos(angle) * gens[0] + np.sin(angle) * gens[1])
        assert relative_error(_expm(a), expm(a)) <= 1e-14


def test_expm_of_zero_is_exactly_the_identity():
    for n in (1, 4, 5, 16, 64):
        for dtype in (float, complex):
            assert np.array_equal(_expm(np.zeros((n, n), dtype)), np.eye(n))


def test_weyl_defect_convergence():
    rng = np.random.default_rng(1)
    for _ in range(3):
        v1 = rng.uniform(-1, 1, 2)
        v2 = rng.uniform(-1, 1, 2)
        v1 *= 0.5 / max(1.0, np.linalg.norm(v1) * 2)
        v2 *= 0.5 / max(1.0, np.linalg.norm(v2) * 2)
        defects = defect_convergence(1, v1, v2, cutoffs=(8, 16, 32))
        assert defects[1] <= defects[0]
        assert defects[2] <= defects[1]
        assert defects[2] <= 1e-6


def test_weyl_defect_zero_for_parallel_displacements():
    system = build_weyl(1, 16)
    # omega(v, v) = 0 and the operators commute, so the defect vanishes.
    assert weyl_defect(system, [0.2, 0.1], [0.4, 0.2]) <= 1e-12


def test_gaussian_covariance_single_mode():
    t = gaussian_covariance(build_weyl(1, 16)).coefficients
    np.testing.assert_allclose(t, [[0.5, 0.5j], [-0.5j, 0.5]], atol=1e-14)


def test_gaussian_covariance_projective_identical():
    system = build_weyl(1, 16)
    base = gaussian_covariance(system).coefficients
    proj = gaussian_covariance(system, projective=True).coefficients
    np.testing.assert_allclose(base, proj, atol=1e-15)


def test_gaussian_covariance_two_modes():
    system = build_weyl(2, 6)
    t = gaussian_covariance(system).coefficients
    np.testing.assert_allclose(t.real, np.eye(4) / 2, atol=1e-14)
    np.testing.assert_allclose(t.imag, system.symplectic_form / 2, atol=1e-14)


def test_lagrangian_restriction_axes():
    t = gaussian_covariance(build_weyl(1, 8))
    for axis in (0, 1):
        restricted = lagrangian_restriction(t, [axis])
        np.testing.assert_allclose(restricted.coefficients, [[0.5]], atol=1e-15)


def test_lagrangian_restriction_rotated_line():
    t = gaussian_covariance(build_weyl(1, 8))
    direction = np.array([1.0, 1.0]) / np.sqrt(2)
    restricted = lagrangian_restriction(t, [direction])
    np.testing.assert_allclose(restricted.coefficients, [[0.5]], atol=1e-15)
    assert np.abs(restricted.coefficients.imag).max() <= 1e-15


def test_lagrangian_restriction_random_frames_kill_im_part():
    t = gaussian_covariance(build_weyl(2, 5))
    for frame in random_lagrangian_frames(2, n_samples=5, seed=3):
        restricted = lagrangian_restriction(t, frame)
        assert np.abs(restricted.coefficients.imag).max() <= 1e-14


def test_lagrangian_restriction_rejects_symplectic_pair():
    # Generator order is (Q1, Q2, P1, P2): the span of Q1 and P1 has the
    # right dimension but pairs symplectically.
    t = gaussian_covariance(build_weyl(2, 4))
    with pytest.raises(NotLagrangianError) as err:
        lagrangian_restriction(t, [0, 2])
    assert err.value.violating_pair == (0, 1)


def test_lagrangian_restriction_rejects_oversized_span():
    t = gaussian_covariance(build_weyl(1, 8))
    with pytest.raises(NotLagrangianError):
        lagrangian_restriction(t, [[1.0, 0.0], [0.0, 1.0]])


def test_lagrangian_restriction_rejects_wrong_dimension():
    t = gaussian_covariance(build_weyl(2, 4))
    with pytest.raises(NotLagrangianError):
        lagrangian_restriction(t, [[1.0, 0, 0, 0]])


def test_moment_oracle_values():
    assert gaussian_moment_oracle(0, 1, 2) == pytest.approx(0.0, abs=1e-14)
    assert gaussian_moment_oracle(0, 0, 1) == pytest.approx(0.5, abs=1e-12)
    assert gaussian_moment_oracle(1, 1, 3) == pytest.approx(0.5, abs=1e-12)


def test_moment_oracle_agrees_with_fock():
    for modes in (1, 2):
        system = build_weyl(modes, 8)
        vac = system.vacuum()
        for j in range(modes):
            for k in range(modes):
                oracle = gaussian_moment_oracle(j, k, modes)
                qq = vac @ system.position_ops[j] @ system.position_ops[k] @ vac
                pp = vac @ system.momentum_ops[j] @ system.momentum_ops[k] @ vac
                assert abs(qq - oracle) <= 1e-10
                assert abs(pp - oracle) <= 1e-10


def test_moment_oracle_requires_enough_points():
    with pytest.raises(ValueError):
        gaussian_moment_oracle(0, 0, 1, quadrature_points=8)


def dense_defect(rep, v1, v2):
    """The exchange defect from dense exponentials of a dense Heisenberg rep,
    taken with the same exponential as :func:`displacement`."""
    w1 = _expm(1j * np.tensordot(np.asarray(v1, dtype=float), rep.generators, axes=1))
    w2 = _expm(1j * np.tensordot(np.asarray(v2, dtype=float), rep.generators, axes=1))
    phase = np.exp(-1j * float(np.asarray(v1) @ rep.multiplier_form @ np.asarray(v2)))
    vac = np.zeros(rep.dim, dtype=complex)
    vac[0] = 1.0
    return float(np.linalg.norm(w1 @ (w2 @ vac) - phase * (w2 @ (w1 @ vac))))


def sample_pair(rng, modes):
    return [v * 0.5 / max(0.5, float(np.linalg.norm(v))) for v in rng.uniform(-1, 1, (2, 2 * modes))]


@pytest.mark.parametrize("modes, cutoff", [(2, 4), (2, 8), (3, 4)])
def test_factorised_matches_dense(modes, cutoff):
    system = build_weyl(modes, cutoff)
    rep = heisenberg_rep(modes, cutoff)
    vac = system.vacuum()
    for projective in (False, True):
        factorised = gaussian_covariance(system, projective=projective).coefficients
        dense = covariance_matrix(rep, vac, projective=projective).coefficients
        assert np.array_equal(factorised, dense)
    gens = rep.generators
    dense_products = (vac.conj() @ gens) @ (gens @ vac).T
    products = generator_states(system, vac.conj(), transpose=True) @ generator_states(system, vac).T
    assert np.array_equal(products, dense_products)
    rng = np.random.default_rng(modes * 100 + cutoff)
    for _ in range(3):
        v1, v2 = sample_pair(rng, modes)
        assert abs(weyl_defect(system, v1, v2) - dense_defect(rep, v1, v2)) <= 1e-15


@pytest.mark.parametrize("cutoff", [8, 16, 32])
def test_single_mode_defect_equals_dense(cutoff):
    # One mode is one expm and one matrix-vector product per displacement,
    # exactly as on the dense path.
    system = build_weyl(1, cutoff)
    rep = heisenberg_rep(1, cutoff)
    rng = np.random.default_rng(cutoff)
    for _ in range(3):
        v1, v2 = sample_pair(rng, 1)
        assert weyl_defect(system, v1, v2) == dense_defect(rep, v1, v2)


def test_state_budget_refused_before_allocation():
    build_weyl(4, 32)  # 2**20 states: the largest admitted Fock space
    for modes, cutoff in [(4, 33), (5, 32), (10**6, 3)]:
        with pytest.raises(SpecError, match="budget"):
            build_weyl(modes, cutoff)
    assert 32**4 == MAX_STATES


def test_defect_growth_clamps_rounding_floor():
    # Rounding-level defects may wobble upward without failing the check.
    assert defect_growth([3.6e-3, 2.07e-16, 2.70e-16]) == 0.0
    assert defect_growth([1e-3, 1e-9, 1e-12]) == 0.0


def test_defect_growth_above_floor_fails():
    # Negative control: a defect that grows above the floor must fail.
    for defects in ([1e-3, 1e-12, 1e-9], [1e-6, 1e-5, 1e-16], [1e-16, 5 * DEFECT_FLOOR, 0.0]):
        growth = defect_growth(defects)
        assert growth > 0.0
        assert not CheckResult("weyl-defect-monotone", growth, 0.0).passed

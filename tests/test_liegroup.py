import numpy as np
import pytest

from qpt.errors import SpecError
from qpt.liegroup import (
    LieAlgebraRep,
    adjoint_matrix,
    euler_point,
    exponential_point,
    group_element,
    heisenberg_rep,
    maurer_cartan_residual,
    rep_from_spec,
    su2_coframe,
    su2_spin_rep,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_spin_half_is_pauli():
    rep = su2_spin_rep(0.5)
    np.testing.assert_array_equal(rep.generators[0], SX)
    np.testing.assert_array_equal(rep.generators[1], SY)
    np.testing.assert_array_equal(rep.generators[2], SZ)


def test_spin_half_commutator():
    rep = su2_spin_rep(0.5)
    comm = rep.generators[0] @ rep.generators[1] - rep.generators[1] @ rep.generators[0]
    np.testing.assert_allclose(comm, 2j * rep.generators[2], atol=1e-15)


def test_spin_one_spectrum():
    rep = su2_spin_rep(1)
    assert rep.dim == 3
    for g in rep.generators:
        np.testing.assert_allclose(np.linalg.eigvalsh(g), [-2, 0, 2], atol=1e-12)


@pytest.mark.parametrize("s", [0.5, 1, 1.5, 2, 2.5, 3])
def test_closure_holds_for_all_spins(s):
    assert su2_spin_rep(s).closure_residual() <= 1e-10 * (2 * s + 1)


def test_bad_spin_rejected():
    with pytest.raises(SpecError):
        su2_spin_rep(0.7)
    with pytest.raises(SpecError):
        su2_spin_rep(0)


def test_heisenberg_single_mode():
    rep = heisenberg_rep(1, 8)
    assert rep.n_generators == 2 and rep.dim == 8
    np.testing.assert_array_equal(rep.multiplier_form, [[0, 1], [-1, 0]])
    q, p = rep.generators
    vac = np.zeros(8)
    vac[0] = 1
    comm_vac = vac @ (q @ p - p @ q) @ vac
    assert comm_vac == pytest.approx(1j, abs=1e-14)


def test_heisenberg_two_modes_cross_commutators():
    rep = heisenberg_rep(2, 4)
    assert rep.n_generators == 4 and rep.dim == 16
    q1, q2, p1, p2 = rep.generators
    for a, b in [(q1, q2), (p1, p2), (q1, p2), (q2, p1)]:
        assert np.abs(a @ b - b @ a).max() == 0.0


def test_heisenberg_cutoff_rejected():
    with pytest.raises(SpecError):
        heisenberg_rep(1, 2)


@pytest.mark.parametrize("modes, cutoff", [(2, 4), (1, 8)])
def test_closure_mask_matches_dense_projector(modes, cutoff):
    # Restricting the defect to the masked rows and columns must give the
    # residual of a dense 0/1 diagonal projector on both sides, bit for bit.
    rep = heisenberg_rep(modes, cutoff)
    assert rep.closure_mask.sum() == (cutoff - 1) ** modes
    gens, omega = rep.generators, rep.omega()
    proj = np.diag(rep.closure_mask).astype(complex)
    eye = np.eye(rep.dim)
    worst = 0.0
    for j in range(rep.n_generators):
        for k in range(j + 1, rep.n_generators):
            lhs = gens[j] @ gens[k] - gens[k] @ gens[j]
            rhs = 1j * np.tensordot(rep.structure_constants[j, k], gens, axes=1)
            defect = lhs - (rhs + 1j * omega[j, k] * eye)
            worst = max(worst, float(np.abs(proj @ defect @ proj).max()))
    assert rep.closure_residual(rep.closure_mask) == worst
    assert rep.closure_residual() > 1.0  # the truncation corner is excluded


def test_coframe_pinned_point():
    cf = su2_coframe(euler_point(0, np.pi / 2, 0))
    np.testing.assert_allclose(cf.theta[0], [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(cf.theta[1], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(cf.theta[2], [1, 0, 0], atol=1e-15)


def test_coframe_determinant_is_sin_beta():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, g = rng.uniform(0, 2 * np.pi, 2)
        b = rng.uniform(0, np.pi)
        for frame in ("right", "left"):
            det = np.linalg.det(su2_coframe(euler_point(a, b, g), frame=frame).theta)
            assert det == pytest.approx(np.sin(b), abs=1e-12)


def test_coframe_requires_euler_chart():
    with pytest.raises(SpecError):
        su2_coframe(exponential_point([0.1, 0.2, 0.3]))


def test_maurer_cartan_su2():
    rep = su2_spin_rep(0.5)
    assert maurer_cartan_residual(rep, euler_point(1.1, 0.9, 2.2), step=1e-5) <= 1e-8


def test_maurer_cartan_negative_control():
    rep = su2_spin_rep(0.5)
    broken = LieAlgebraRep(rep.generators, np.zeros((3, 3, 3)), validate_closure=False)
    # With zeroed structure constants the residual is max |d theta_r| > 0.
    assert maurer_cartan_residual(broken, euler_point(1.1, 0.9, 2.2)) > 1e-2


def test_maurer_cartan_abelian_coordinate_coframe():
    rep = heisenberg_rep(1, 6)
    assert maurer_cartan_residual(rep, exponential_point([0.3, -0.4])) == 0.0


def test_maurer_cartan_degenerate_point_warns():
    rep = su2_spin_rep(0.5)
    with pytest.warns(UserWarning):
        maurer_cartan_residual(rep, euler_point(0.5, 0.0, 1.0))


def test_group_element_identity():
    rep = su2_spin_rep(0.5)
    np.testing.assert_allclose(
        group_element(rep, exponential_point([0, 0, 0])), np.eye(2), atol=1e-15
    )


def test_group_element_euler_closed_form():
    # exp(1j pi sigma_y / 2) = 1j sigma_y, by the half-angle expansion.
    rep = su2_spin_rep(0.5)
    u = group_element(rep, euler_point(0, np.pi, 0))
    np.testing.assert_allclose(u, 1j * SY, atol=1e-14)


def test_group_element_unitary_random():
    rng = np.random.default_rng(1)
    for s in (0.5, 1):
        rep = su2_spin_rep(s)
        for _ in range(5):
            u = group_element(rep, exponential_point(rng.uniform(-2, 2, 3)))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(rep.dim), atol=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_group_element_four_pi_periodic(s):
    rep = su2_spin_rep(s)
    a, b, g = 0.7, 1.2, 2.1
    u1 = group_element(rep, euler_point(a, b, g))
    u2 = group_element(rep, euler_point(a + 4 * np.pi, b, g))
    assert np.abs(u1 - u2).max() <= 1e-10


def test_adjoint_identity_point():
    rep = su2_spin_rep(0.5)
    np.testing.assert_allclose(
        adjoint_matrix(rep, exponential_point([0, 0, 0])), np.eye(3), atol=1e-12
    )


def test_adjoint_beta_rotation():
    # Closed form: conjugation by exp(1j b sigma_y / 2) rotates the
    # (sigma_x, sigma_z) plane, column j holding the image of generator j.
    rep = su2_spin_rep(0.5)
    b = 0.9
    a = adjoint_matrix(rep, euler_point(0, b, 0))
    expected = np.array(
        [[np.cos(b), 0, -np.sin(b)], [0, 1, 0], [np.sin(b), 0, np.cos(b)]]
    )
    np.testing.assert_allclose(a, expected, atol=1e-12)


def test_adjoint_is_orthogonal():
    rng = np.random.default_rng(2)
    rep = su2_spin_rep(0.5)
    for _ in range(10):
        a = adjoint_matrix(rep, exponential_point(rng.uniform(-2, 2, 3)))
        np.testing.assert_allclose(a.T @ a, np.eye(3), atol=1e-10)


def test_adjoint_composition():
    rng = np.random.default_rng(3)
    rep = su2_spin_rep(1)
    for _ in range(5):
        pg = exponential_point(rng.uniform(-1, 1, 3))
        ph = exponential_point(rng.uniform(-1, 1, 3))
        u_prod = group_element(rep, pg) @ group_element(rep, ph)
        a_prod = adjoint_matrix(rep, pg) @ adjoint_matrix(rep, ph)
        for j in range(3):
            lhs = u_prod @ rep.generators[j] @ u_prod.conj().T
            rhs = np.tensordot(a_prod[:, j], rep.generators, axes=1)
            assert np.abs(lhs - rhs).max() <= 1e-8


def test_adjoint_rejects_dependent_generators():
    gens = np.array([SX, SX])
    rep = LieAlgebraRep(gens, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        adjoint_matrix(rep, exponential_point([0.1, 0.2]))


def test_rep_arrays_are_read_only():
    rep = su2_spin_rep(0.5)
    with pytest.raises(ValueError):
        rep.generators[0, 0, 0] = 5.0


def test_rep_validation_rejects_bad_closure():
    with pytest.raises(ValueError):
        LieAlgebraRep(su2_spin_rep(0.5).generators, np.zeros((3, 3, 3)))


def test_rep_validation_rejects_non_hermitian():
    gens = np.zeros((1, 2, 2), dtype=complex)
    gens[0] = [[0, 1], [0, 0]]
    with pytest.raises(ValueError):
        LieAlgebraRep(gens, np.zeros((1, 1, 1)))


def test_rep_from_spec_builtins():
    rep = rep_from_spec({"builtin": "su2", "spin": 0.5})
    np.testing.assert_array_equal(rep.generators[2], SZ)
    rep = rep_from_spec({"builtin": "heisenberg", "modes": 1, "cutoff": 8})
    assert rep.dim == 8


def test_rep_from_spec_explicit():
    pauli_pairs = [
        [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        [[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    ]
    rep = rep_from_spec(
        {
            "generators": pauli_pairs,
            "structure_constants": su2_spin_rep(0.5).structure_constants.tolist(),
        }
    )
    np.testing.assert_array_equal(rep.generators[0], SX)


@pytest.mark.parametrize(
    "bad",
    [
        {"builtin": "nope"},
        {"builtin": "su2"},
        {"generators": [[[[0, 0]]]]},
        [1, 2, 3],
    ],
)
def test_rep_from_spec_rejects(bad):
    with pytest.raises(SpecError):
        rep_from_spec(bad)


def test_heisenberg_size_budget():
    # Refused from the sizes alone: no power of an oversized request is formed.
    for modes, cutoff in [(2, 33), (3, 11), (10**6, 3), (1, 10**12)]:
        with pytest.raises(SpecError, match="budget"):
            heisenberg_rep(modes, cutoff)

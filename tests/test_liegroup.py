import numpy as np
import pytest
from scipy.linalg import expm

from qpt import fock
from qpt.errors import SpecError
from qpt.hilbert import hermiticity_defect
from qpt.liegroup import (
    GroupPoint,
    LieAlgebraRep,
    adjoint_matrix,
    euler_elements,
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


@pytest.mark.parametrize("modes, cutoff", [(1, 8), (2, 4), (2, 32), (3, 8)])
def test_position_momentum_matches_kron(modes, cutoff):
    a = fock.annihilation(cutoff)
    q1 = (a + a.conj().T) / np.sqrt(2.0)
    p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
    eye = [np.eye(cutoff**k, dtype=complex) for k in range(modes)]
    expected = np.array([
        np.kron(np.kron(eye[m], op), eye[modes - 1 - m]) for op in (q1, p1) for m in range(modes)
    ])
    ops = fock.position_momentum(modes, cutoff)
    assert np.array_equal(ops, expected)
    assert ops.tobytes() == expected.tobytes()  # the sign bits of zeros too


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
    np.testing.assert_allclose(cf[0], [0, 0, -1], atol=1e-15)
    np.testing.assert_allclose(cf[1], [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(cf[2], [1, 0, 0], atol=1e-15)


def test_coframe_determinant_is_sin_beta():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, g = rng.uniform(0, 2 * np.pi, 2)
        b = rng.uniform(0, np.pi)
        for frame in ("right", "left"):
            det = np.linalg.det(su2_coframe(euler_point(a, b, g), frame=frame))
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


def rotated_spin_rep(s, seed):
    """Spin-``s`` generators conjugated by a random unitary: ``R_3`` is not diagonal."""
    rng = np.random.default_rng(seed)
    base = su2_spin_rep(s)
    w, _ = np.linalg.qr(rng.normal(size=(base.dim,) * 2) + 1j * rng.normal(size=(base.dim,) * 2))
    return LieAlgebraRep(w @ base.generators @ w.conj().T, base.structure_constants)


@pytest.mark.parametrize(
    "rep",
    [su2_spin_rep(0.5), su2_spin_rep(1.0), su2_spin_rep(1.5), su2_spin_rep(2.0), rotated_spin_rep(1.0, 7)],
    ids=["spin-1/2", "spin-1", "spin-3/2", "spin-2", "rotated-spin-1"],
)
def test_euler_elements_match_expm_product(rep):
    r = rep.generators
    angles = np.random.default_rng(11).uniform(-2 * np.pi, 4 * np.pi, (4, 5, 3))
    stacked = euler_elements(rep, angles)
    assert stacked.shape == (4, 5, rep.dim, rep.dim)
    for point, u in zip(angles.reshape(-1, 3), stacked.reshape(-1, rep.dim, rep.dim)):
        a, b, g = point
        expected = expm(1j * a * r[2] / 2) @ expm(1j * b * r[1] / 2) @ expm(1j * g * r[2] / 2)
        assert np.abs(u - expected).max() <= 1e-14
        np.testing.assert_array_equal(group_element(rep, euler_point(a, b, g)), euler_elements(rep, point))


@pytest.mark.parametrize(
    "rep",
    [su2_spin_rep(0.5), su2_spin_rep(1.0), su2_spin_rep(1.5), su2_spin_rep(2.0), heisenberg_rep(1, 8)],
    ids=["spin-1/2", "spin-1", "spin-3/2", "spin-2", "heisenberg-1-8"],
)
def test_exponential_chart_stack_matches_expm(rep):
    coords = np.random.default_rng(5).uniform(-1.5, 1.5, (12, rep.n_generators))
    stacked = group_element(rep, exponential_point(coords))
    assert stacked.shape == (12, rep.dim, rep.dim)
    for x, u in zip(coords, stacked):
        expected = expm(1j * np.tensordot(x, rep.generators, axes=1))
        assert np.abs(u - expected).max() <= 1e-13


def test_rotated_rep_has_non_diagonal_r3():
    r3 = rotated_spin_rep(1.0, 7).generators[2]
    assert np.abs(r3 - np.diag(np.diag(r3))).max() > 0.1


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


@pytest.mark.parametrize(
    "rep, point",
    [
        (su2_spin_rep(1), exponential_point(np.random.default_rng(4).uniform(-2, 2, (3, 3)))),
        (su2_spin_rep(1.5), euler_point([0.3, 1.0, 5.0], [0.2, 1.5, 2.9], [4.0, 0.1, 2.2])),
        (heisenberg_rep(1, 6), exponential_point([[0.3, -0.4], [0.1, 0.2]])),
    ],
    ids=["su2-exponential", "su2-euler", "heisenberg-exponential"],
)
def test_stacked_group_chart_equals_single_points(rep, point):
    u = group_element(rep, point)
    a, shift = adjoint_matrix(rep, point, return_shift=True)
    assert u.shape == (len(point.coords), rep.dim, rep.dim)
    assert a.shape == (len(point.coords),) + (rep.n_generators,) * 2
    for i, coords in enumerate(point.coords):
        single = GroupPoint(coords, point.chart)
        np.testing.assert_array_equal(u[i], group_element(rep, single))
        a_i, shift_i = adjoint_matrix(rep, single, return_shift=True)
        np.testing.assert_array_equal(a[i], a_i)
        np.testing.assert_array_equal(shift[i], shift_i)


def test_maurer_cartan_stack_equals_single_points():
    rep = su2_spin_rep(1)
    point = euler_point([0.3, 1.1, 5.0], [0.2, 0.9, 2.9], [4.0, 2.2, 0.1])
    stacked = maurer_cartan_residual(rep, point)
    single = [maurer_cartan_residual(rep, euler_point(*coords)) for coords in point.coords]
    assert stacked.shape == (3,)
    assert np.abs(stacked - single).max() <= 1e-12 * max(single)
    assert su2_coframe(point).shape == (3, 3, 3)


def test_adjoint_rejects_dependent_generators():
    gens = np.array([SX, SX])
    rep = LieAlgebraRep(gens, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        adjoint_matrix(rep, exponential_point([0.1, 0.2]))


def test_rep_arrays_are_read_only():
    rep = su2_spin_rep(0.5)
    with pytest.raises(ValueError):
        rep.generators[0, 0, 0] = 5.0


def test_rep_copies_an_array_its_caller_can_write():
    gens = np.array(su2_spin_rep(0.5).generators)
    consts = np.array(su2_spin_rep(0.5).structure_constants)
    view = gens.view()
    view.setflags(write=False)  # read-only, but gens still writes its memory
    reps = [LieAlgebraRep(gens, consts), LieAlgebraRep(view, consts)]
    gens[0, 0, 0] = 5.0
    consts[0, 1, 2] = 7.0
    for rep in reps:
        np.testing.assert_array_equal(rep.generators[0], SX)
        assert rep.structure_constants[0, 1, 2] == 2.0


def test_rep_keeps_a_handed_over_stack_without_a_copy(monkeypatch):
    built = []
    position_momentum = fock.position_momentum

    def recorded(modes, cutoff):
        built.append(position_momentum(modes, cutoff))
        return built[-1]

    monkeypatch.setattr(fock, "position_momentum", recorded)
    rep = heisenberg_rep(2, 8)
    assert rep.generators is built[0]
    assert not rep.generators.flags.writeable


def test_rep_validation_rejects_bad_closure():
    with pytest.raises(ValueError):
        LieAlgebraRep(su2_spin_rep(0.5).generators, np.zeros((3, 3, 3)))


def test_rep_validation_rejects_non_hermitian():
    gens = np.array([SZ, [[0, 1], [0, 0]]], dtype=complex)
    with pytest.raises(ValueError, match="generator 1 is not Hermitian"):
        LieAlgebraRep(gens, np.zeros((2, 2, 2)))


def test_rep_validation_rejects_non_finite():
    gens = np.array([SZ, [[np.nan, 0], [0, 0]]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        LieAlgebraRep(gens, np.zeros((2, 2, 2)))


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


def _random_rep(d, seed, per_row=None, noise=0.0):
    """Seeded explicit rep on three random Hermitian generators with nonzero
    structure constants and multiplier form; ``per_row`` random entries per
    row make it sparse, ``None`` dense.  ``noise`` is an anti-Hermitian part
    left below the tolerance.  Unvalidated: the algebra does not close."""
    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(3):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if per_row is not None:
            keep = np.zeros((d, d), dtype=bool)
            keep[np.repeat(np.arange(d), per_row), rng.integers(0, d, d * per_row)] = True
            a = np.where(keep, a, 0)
        gens.append((a + a.conj().T) / 2)
    gens[0][0, 1] += noise
    c = rng.normal(size=(3, 3, 3))
    omega = rng.normal(size=(3, 3))
    return LieAlgebraRep(np.array(gens), c - c.swapaxes(0, 1), multiplier_form=omega - omega.T,
                         validate_closure=False)


def _built_counting_dense(monkeypatch, build):
    """The rep ``build()`` returns and the number of dense closure calls made."""
    calls = []
    dense = LieAlgebraRep.closure_residual

    def counting(self, mask=None):
        calls.append(self.dim)
        return dense(self, mask)

    monkeypatch.setattr(LieAlgebraRep, "closure_residual", counting)
    rep = build()
    monkeypatch.undo()
    return rep, len(calls)


@pytest.mark.parametrize(
    "build, dense_calls",
    [
        (lambda: heisenberg_rep(1, 8), 0),
        (lambda: heisenberg_rep(2, 4), 0),
        (lambda: heisenberg_rep(2, 16), 0),
        (lambda: heisenberg_rep(3, 8), 0),
        (lambda: su2_spin_rep(0.5), 0),
        (lambda: su2_spin_rep(1.5), 1),  # d = 4: a pair needs 20 > 16 products
        (lambda: su2_spin_rep(20), 0),
        (lambda: su2_spin_rep(200), 0),
        (lambda: _random_rep(32, seed=3, per_row=1, noise=1e-12), 0),
    ],
    ids=["heisenberg-1-8", "heisenberg-2-4", "heisenberg-2-16", "heisenberg-3-8", "spin-1/2",
         "spin-3/2", "spin-20", "spin-200", "random-sparse"],
)
def test_nonzero_closure_matches_dense(monkeypatch, build, dense_calls):
    # Both forms round one product per entry, so they agree within a bound
    # set by the dimension and the largest generator entry.
    rep, calls = _built_counting_dense(monkeypatch, build)
    assert calls == dense_calls
    scale = float(np.abs(rep.generators).max())
    assert abs(rep.closure - rep.closure_residual(rep.closure_mask)) <= 1e-15 * rep.dim * scale**2
    assert rep.hermiticity == float(hermiticity_defect(rep.generators).max())


def test_random_sparse_rep_has_a_hermiticity_defect():
    # The noise term makes the Hermiticity comparison above non-trivial.
    assert 0.0 < _random_rep(32, seed=3, per_row=1, noise=1e-12).hermiticity <= 1e-12


def test_nonzero_closure_sees_perturbation_inside_mask_only():
    rep = heisenberg_rep(2, 4)
    mask, tol = rep.closure_mask, 1e-10 * rep.dim
    inside = np.flatnonzero(mask)[:2]
    corner = rep.dim - 1
    assert not mask[corner]
    for (i, j), excluded in (((inside[0], inside[1]), False), ((corner, corner), True)):
        gens = rep.generators.copy()
        gens[0, i, j] += 1e-3
        gens[0, j, i] += 1e-3
        perturbed = LieAlgebraRep(gens, rep.structure_constants, rep.multiplier_form,
                                  closure_mask=mask, validate_closure=False)
        dense = perturbed.closure_residual(mask)
        assert abs(perturbed.closure - dense) <= 1e-15 * rep.dim * float(np.abs(gens).max()) ** 2
        assert (perturbed.closure <= tol) == excluded


def test_heisenberg_rep_forms_no_dense_commutator(monkeypatch):
    def refuse(self, mask=None):
        raise AssertionError("dense closure residual called")

    monkeypatch.setattr(LieAlgebraRep, "closure_residual", refuse)
    assert heisenberg_rep(2, 16).closure <= 1e-10 * 256


def test_dense_rep_takes_the_dense_closure_once(monkeypatch):
    rep, calls = _built_counting_dense(monkeypatch, lambda: _random_rep(64, seed=5))
    assert calls == 1
    assert rep.closure == rep.closure_residual()

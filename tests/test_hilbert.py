import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt.hilbert import (
    hermitian_split,
    hermitian_tensor,
    hermiticity_defect,
    inner,
    is_hermitian,
    is_skew_hermitian,
    is_unitary,
    norm,
)

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)


def complex_numbers(max_abs=3.0):
    finite = st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False)
    return st.builds(complex, finite, finite)


def vectors(dim=3):
    return st.lists(complex_numbers(), min_size=dim, max_size=dim).map(np.array)


def test_hermiticity_defect_of_matrix_and_stack():
    a = np.array([[1, 2j], [0, 3]])
    assert hermiticity_defect(a) == 2.0
    stack = np.array([a, np.eye(2), 1j * np.eye(2)])
    np.testing.assert_array_equal(hermiticity_defect(stack), [2.0, 0.0, 2.0])
    assert is_hermitian(np.eye(2)) and not is_hermitian(a)


def test_inner_orthonormal_basis():
    assert inner(E1, E2) == 0


def test_inner_unit_norm():
    v = np.array([1, 1j]) / np.sqrt(2)
    assert inner(v, v) == pytest.approx(1)


def test_inner_linearity_second_slot():
    assert inner([1, 0], [3 + 4j, 0]) == pytest.approx(3 + 4j)


def test_inner_conjugate_symmetry():
    u = np.array([1 + 2j, -0.5j, 3])
    v = np.array([0.2, 1j, -1 + 1j])
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)))


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner([1, 0], [1, 0, 0])


@settings(deadline=None, max_examples=50)
@given(vectors(), vectors(), vectors(), complex_numbers(), complex_numbers())
def test_inner_sesquilinearity(phi, chi, psi, a, b):
    lhs = inner(a * phi + b * chi, psi)
    rhs = np.conj(a) * inner(phi, psi) + np.conj(b) * inner(chi, psi)
    assert abs(lhs - rhs) <= 1e-12


def unit(psi):
    """``psi`` normalised; a near-zero draw is moved off the origin first."""
    if np.linalg.norm(psi) < 1e-3:
        psi = psi + np.array([1.0, 0, 0])
    return psi / np.linalg.norm(psi)


def test_hermitian_tensor_basis_values():
    h = hermitian_tensor(E1, np.array([E1, 1j * E1, E2]))
    np.testing.assert_array_equal(h[0], [1, 1j, 0])
    metric, form = hermitian_split(h)
    assert (metric[0, 0], form[0, 0]) == (1, 0)
    assert (metric[0, 1], form[0, 1]) == (0, 1)


def test_hermitian_tensor_base_point_independent():
    rng = np.random.default_rng(7)
    tangents = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    moved = (E1 + 2j * E2) / np.sqrt(5)
    np.testing.assert_array_equal(hermitian_tensor(E1, tangents), hermitian_tensor(moved, tangents))


def test_projective_tensor_anchor_value():
    # psi = e1, u = v = e2: 1 - 0 = 1, the ray-space normalization anchor.
    assert hermitian_tensor(E1, E2[None], projective=True)[0, 0] == pytest.approx(1)


@settings(deadline=None, max_examples=50)
@given(vectors(), vectors())
def test_projective_degeneracy_directions(psi, v):
    psi = unit(psi)
    h = hermitian_tensor(psi, np.array([psi, 1j * psi, v]), projective=True)
    assert np.abs(h[:2]).max() <= 1e-12  # rows of psi and 1j psi
    assert np.abs(h[:, :2]).max() <= 1e-12  # and their columns


@settings(deadline=None, max_examples=50)
@given(vectors(), vectors(), vectors(), st.floats(0.0, 2 * np.pi))
def test_projective_phase_invariance(psi, u, v, angle):
    psi = unit(psi)
    phase = np.exp(1j * angle)
    base = hermitian_tensor(psi, np.array([u, v]), projective=True)
    moved = hermitian_tensor(phase * psi, phase * np.array([u, v]), projective=True)
    assert np.abs(moved - base).max() <= 1e-10 * max(1.0, np.abs(base).max())


def test_projective_hermitian_split_symmetry():
    rng = np.random.default_rng(3)
    psi, u, v = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
    h = hermitian_tensor(psi / np.linalg.norm(psi), np.array([u, v]), projective=True)
    metric, form = hermitian_split(h)
    np.testing.assert_array_equal(metric, metric.T)
    np.testing.assert_array_equal(form, -form.T)
    np.testing.assert_allclose(metric + 1j * form, h, atol=1e-12)


@pytest.mark.parametrize("projective", [False, True])
def test_hermitian_tensor_stack_matches_slices(projective):
    rng = np.random.default_rng(11)
    psi = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    tangents = rng.normal(size=(5, 3, 4)) + 1j * rng.normal(size=(5, 3, 4))
    stacked = hermitian_tensor(psi, tangents, projective)
    assert stacked.shape == (5, 3, 3)
    for p in range(5):
        np.testing.assert_allclose(
            stacked[p], hermitian_tensor(psi[p], tangents[p], projective), rtol=0, atol=1e-14
        )


def test_norm():
    assert norm([3, 4j]) == pytest.approx(5)


def test_operator_predicates():
    sy = np.array([[0, -1j], [1j, 0]])
    assert is_hermitian(sy)
    assert is_unitary(sy)
    assert is_skew_hermitian(1j * sy)
    assert not is_hermitian([[0, 1], [0, 0]])
    assert not is_unitary([[1, 0], [0, 2]])

"""Finite-dimensional complex Hilbert-space substrate.

States and operators are plain numpy arrays.  This module provides the
Hermitian inner product, tested operator predicates (hermitian / unitary /
skew-hermitian), and the one evaluation of the Hermitian tensor,
:func:`hermitian_tensor`, flat or ray-space (projective, Fubini-Study type),
with :func:`hermitian_split` into metric and two-form.

Every embedding pulls the tensor back through that one function and only
supplies its tangent vectors at a unit state: the group orbit passes
``R_j psi`` (:func:`qpt.pullback.covariance_matrix`), the Weyl system the
mode-factorised ``R_j |0>`` (:func:`qpt.weyl.gaussian_covariance`), and a
Hamiltonian family the eigenstate derivatives ``d_mu psi``
(:func:`qpt.qgt.qgt_tensor` and :func:`qpt.qgt.finite_difference_qgt`).

The orthonormal frame is fixed once and does not depend on the base point,
so the flat Hermitian tensor is position independent.  The complex structure is
multiplication by ``1j`` on coefficients and is never materialised as a
matrix.
"""

from __future__ import annotations

import numpy as np

# Base tolerance for operator-property tests; scaled by matrix dimension.
PROPERTY_ATOL = 1e-10


def as_state(psi) -> np.ndarray:
    """Coerce input to a finite, nonempty 1-D complex vector."""
    arr = np.asarray(psi, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"state must be a nonempty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("state has non-finite entries")
    return arr


def as_operator(a) -> np.ndarray:
    """Coerce input to a finite square complex matrix."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator has non-finite entries")
    return arr


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the first significant component to the positive real axis.

    ``vec`` is one vector or a stack with the vectors along the last axis;
    a vector with no significant component is left as it is.
    """
    significant = np.abs(vec) > 1e-12
    pivot = np.take_along_axis(vec, significant.argmax(axis=-1)[..., None], axis=-1)
    pivot = np.where(significant.any(axis=-1, keepdims=True), pivot, 1)
    # hypot, not np.abs: on arrays np.abs can differ from the scalar modulus
    # in the last bit, and the phase of one vector must not depend on stacking.
    return vec / (pivot / np.hypot(pivot.real, pivot.imag))


def _tol(dim: int, atol: float | None) -> float:
    return PROPERTY_ATOL * dim if atol is None else atol


def hermiticity_defect(a):
    """Max of ``|a - a^dag|`` over the last two axes: a float for one
    matrix, an array of shape ``a.shape[:-2]`` for a stack."""
    a = np.asarray(a)
    return np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def is_hermitian(a, atol: float | None = None) -> bool:
    a = as_operator(a)
    return float(hermiticity_defect(a)) <= _tol(a.shape[0], atol)


def is_skew_hermitian(a, atol: float | None = None) -> bool:
    a = as_operator(a)
    return float(np.abs(a + a.conj().T).max()) <= _tol(a.shape[0], atol)


def is_unitary(a, atol: float | None = None) -> bool:
    a = as_operator(a)
    eye = np.eye(a.shape[0])
    return float(np.abs(a.conj().T @ a - eye).max()) <= _tol(a.shape[0], atol)


def inner(phi, psi) -> complex:
    """Hermitian inner product, conjugate linear in the first argument."""
    phi = as_state(phi)
    psi = as_state(psi)
    if phi.shape != psi.shape:
        raise ValueError(f"dimension mismatch: {phi.shape[0]} vs {psi.shape[0]}")
    return complex(np.vdot(phi, psi))


def norm(psi) -> float:
    return float(np.linalg.norm(as_state(psi)))


def hermitian_tensor(psi, tangents, projective: bool = False) -> np.ndarray:
    """Hermitian tensor at the unit state ``psi`` on its tangent vectors.

    ``psi`` has shape ``(..., d)`` and ``tangents`` shape ``(..., m, d)``,
    with matching leading stack axes; the result ``h`` has shape
    ``(..., m, m)``, ``h[j, k] = <u_j|u_k>``, the flat tensor, which does not
    depend on the base point.  With ``projective`` it is
    ``<u_j|u_k> - <u_j|psi><psi|u_k>``, the ray-space tensor, which vanishes
    on ``psi`` and ``1j * psi``.  ``psi`` must already be normalised.
    """
    u = np.asarray(tangents)
    h = u.conj() @ u.swapaxes(-1, -2)
    if projective:
        psi = np.asarray(psi)
        bra_psi = u.conj() @ psi[..., None]  # <u_j|psi>, a column
        psi_ket = (u @ psi.conj()[..., None]).swapaxes(-1, -2)  # <psi|u_k>, a row
        h = h - bra_psi * psi_ket
    return h


def hermitian_split(h) -> tuple[np.ndarray, np.ndarray]:
    """Split ``h (..., m, m)`` into its symmetrised real part, the metric,
    and its antisymmetrised imaginary part, the two-form; a Hermitian ``h``
    is ``metric + 1j * form``."""
    h = np.asarray(h)
    return (h.real + h.real.swapaxes(-1, -2)) / 2, (h.imag - h.imag.swapaxes(-1, -2)) / 2

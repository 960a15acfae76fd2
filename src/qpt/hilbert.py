"""Finite-dimensional complex Hilbert-space substrate.

States and operators are plain numpy arrays.  This module provides the
Hermitian inner product, tested operator predicates (hermitian / unitary /
skew-hermitian), and pointwise evaluation of the flat Hermitian tensor and
of its ray-space (projective, Fubini-Study type) version.

The orthonormal frame is fixed once and does not depend on the base point,
so the Hermitian tensor is position independent.  The complex structure is
multiplication by ``1j`` on coefficients and is never materialised as a
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroFiducialError

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


def is_hermitian(a, atol: float | None = None) -> bool:
    a = as_operator(a)
    return float(np.abs(a - a.conj().T).max()) <= _tol(a.shape[0], atol)


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


@dataclass(frozen=True)
class TensorValue:
    """One complex tensor evaluation split into metric and two-form parts."""

    value: complex
    real_part: float
    imag_part: float

    @classmethod
    def of(cls, z: complex) -> "TensorValue":
        z = complex(z)
        return cls(value=z, real_part=z.real, imag_part=z.imag)


def hermitian_tensor_at(psi, u, v) -> TensorValue:
    """Flat Hermitian tensor on tangent vectors ``u``, ``v`` at ``psi``.

    The real part is the Euclidean metric contribution and the imaginary
    part the symplectic one.  The value does not depend on the base point.
    """
    psi = as_state(psi)
    u = as_state(u)
    v = as_state(v)
    if not (psi.shape == u.shape == v.shape):
        raise ValueError("base point and tangent vectors must share one dimension")
    return TensorValue.of(np.vdot(u, v))


def projective_tensor_at(psi, u, v) -> TensorValue:
    """Ray-space (projective) Hermitian tensor at ``psi``.

    Evaluates ``<u|v>/<psi|psi> - <psi|v><u|psi>/<psi|psi>^2``.  The result
    is invariant under rescaling ``psi -> lam*psi`` (with tangent vectors
    transported the same way) and vanishes whenever ``u`` or ``v`` is
    proportional to ``psi`` or ``1j*psi``.
    """
    psi = as_state(psi)
    u = as_state(u)
    v = as_state(v)
    if not (psi.shape == u.shape == v.shape):
        raise ValueError("base point and tangent vectors must share one dimension")
    nsq = float(np.vdot(psi, psi).real)
    if nsq <= 0.0 or not np.isfinite(nsq):
        raise ZeroFiducialError("projective tensor undefined at the zero vector")
    value = np.vdot(u, v) / nsq - np.vdot(psi, v) * np.vdot(u, psi) / nsq**2
    return TensorValue.of(value)

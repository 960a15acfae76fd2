"""Pull-back of the Hermitian / projective tensor along a group orbit.

The orbit of a fiducial state under a unitary representation carries the
pulled-back tensor ``T[j, k] = <0| R_j R_k |0>`` (with the product of first
moments subtracted in the projective case).  The coefficients are taken at
the fiducial state in an invariant frame, so they are constant over the
orbit; all coordinate dependence enters through the chart coframe.

Tensor assembly convention: the full pulled-back tensor is
``T[j, k] theta_j (x) theta_k`` with no extra 1/2; symmetric and wedge
products are ``a (.) b = a(x)b + b(x)a`` and ``a ^ b = a(x)b - b(x)a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroFiducialError
from .hilbert import _fix_phase, as_state
from .liegroup import Coframe, GroupPoint, LieAlgebraRep, group_element

HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class PullbackTensor:
    """Constant coefficient matrix of a pulled-back tensor.

    ``coefficients`` is Hermitian; its real part is the metric coefficient
    matrix and its imaginary part the two-form one.  ``fiducial`` stores the
    normalised state the expectations were taken at, and ``multiplier_form``
    the central-extension two-form of the generators (``None`` when there is
    none), which :func:`qpt.weyl.lagrangian_restriction` reads.
    """

    coefficients: np.ndarray
    projective: bool
    fiducial: np.ndarray
    multiplier_form: np.ndarray | None = None

    @property
    def metric_coefficients(self) -> np.ndarray:
        return split(self)[0]

    @property
    def form_coefficients(self) -> np.ndarray:
        return split(self)[1]


@dataclass(frozen=True)
class CoordinateTensor:
    """Metric and two-form matrices at one chart point."""

    point: np.ndarray
    metric: np.ndarray
    two_form: np.ndarray


def _normalized_fiducial(fiducial) -> np.ndarray:
    """Unit fiducial with its global phase stripped: no rounding residue."""
    psi = as_state(fiducial)
    n = float(np.linalg.norm(psi))
    if n <= 0.0:
        raise ZeroFiducialError("fiducial vector has zero norm")
    return _fix_phase(psi / n)


def covariance_matrix(
    rep: LieAlgebraRep, fiducial, projective: bool = False
) -> PullbackTensor:
    """Second-moment matrix ``<0|R_j R_k|0>`` of the generators.

    The fiducial is normalised internally; with ``projective=True`` the
    product of first moments is subtracted, which makes the result invariant
    under rescaling of the fiducial and positive semidefinite in its real
    part.
    """
    psi = _normalized_fiducial(fiducial)
    if psi.size != rep.dim:
        raise ValueError(f"fiducial dimension {psi.size} does not match rep dimension {rep.dim}")
    return PullbackTensor(
        coefficients=second_moments(psi, rep.generators @ psi, projective),
        projective=projective,
        fiducial=psi,
        multiplier_form=rep.multiplier_form,
    )


def second_moments(psi: np.ndarray, gpsi: np.ndarray, projective: bool = False) -> np.ndarray:
    """``<psi| R_j R_k |psi>`` from the unit state and the stack
    ``gpsi[j] = R_j |psi>``; with ``projective`` the product of first
    moments is subtracted."""
    t = gpsi.conj() @ gpsi.T
    if projective:
        first = psi.conj() @ gpsi.T  # <R_j>, real for Hermitian generators
        t = t - np.outer(first, first)
    return t


def split(t: PullbackTensor) -> tuple[np.ndarray, np.ndarray]:
    """Split coefficients into (real symmetric metric, real antisymmetric form).

    Requires the coefficient matrix to be Hermitian; the two outputs
    reconstruct it as ``metric + 1j * form``.
    """
    c = t.coefficients
    defect = float(np.abs(c - c.conj().T).max())
    if defect > HERMITICITY_ATOL * max(1.0, float(np.abs(c).max())):
        raise ValueError(f"coefficient matrix is not Hermitian: defect {defect:.3e}")
    metric = (c.real + c.real.T) / 2
    form = (c.imag - c.imag.T) / 2
    return metric, form


def multiplier_consistency(rep: LieAlgebraRep, fiducial) -> float:
    """Residual of ``2 Im(T)[j,k] = c[j,k,r] <R_r> + omega[j,k]``.

    The antisymmetric part of the pulled-back tensor is the expectation of
    the commutator identity; the residual is the max-norm defect.
    """
    psi = _normalized_fiducial(fiducial)
    t = covariance_matrix(rep, psi).coefficients
    first = np.real(np.einsum("i,nij,j->n", psi.conj(), rep.generators, psi))
    expected = np.tensordot(rep.structure_constants, first, axes=([2], [0])) + rep.omega()
    return float(np.abs(2.0 * t.imag - expected).max())


def degeneracy_directions(
    rep: LieAlgebraRep, fiducial, tol: float = 1e-8
) -> list[np.ndarray]:
    """Null directions of the projective metric coefficient matrix.

    Each returned unit vector ``u`` satisfies
    ``(u . R) |0> = <u . R> |0>`` within tolerance: the corresponding
    subalgebra moves the fiducial ray by a phase only.  Directions are
    sign-fixed so their first significant component is positive.  The list
    is empty when the projective metric has full rank.
    """
    metric, _ = split(covariance_matrix(rep, fiducial, projective=True))
    eigvals, eigvecs = np.linalg.eigh(metric)
    out = []
    for val, vec in zip(eigvals, eigvecs.T):
        if val <= tol:
            pivot = np.flatnonzero(np.abs(vec) > 1e-9)
            if pivot.size and vec[pivot[0]] < 0:
                vec = -vec
            out.append(vec)
    return out


def contract(t: PullbackTensor, theta) -> tuple[np.ndarray, np.ndarray]:
    """Contract constant coefficients with coframe components.

    ``theta`` has shape ``(..., n, m)`` with any leading stack axes; the
    result is the pair of coordinate matrices of shape ``(..., m, m)``,
    ``G[a, b] = sum_jk Re(T)[j,k] theta[j,a] theta[k,b]`` and likewise with
    the imaginary part for the two-form.  Symmetry and antisymmetry hold by
    construction.
    """
    metric_c, form_c = split(t)
    if theta.shape[-2] != metric_c.shape[0]:
        raise ValueError(
            f"coframe has {theta.shape[-2]} forms but tensor has {metric_c.shape[0]}"
        )
    theta_t = np.swapaxes(theta, -1, -2)
    return theta_t @ metric_c @ theta, theta_t @ form_c @ theta


def evaluate_at(t: PullbackTensor, coframe: Coframe) -> CoordinateTensor:
    """Coordinate matrices at one chart point: the single-point case of
    :func:`contract`."""
    metric, two_form = contract(t, coframe.theta)
    return CoordinateTensor(point=coframe.point, metric=metric, two_form=two_form)


def orbit_state(rep: LieAlgebraRep, fiducial, point: GroupPoint) -> np.ndarray:
    """Fiducial state displaced along the orbit: ``U(g) |0>``."""
    psi = as_state(fiducial)
    if psi.size != rep.dim:
        raise ValueError(f"fiducial dimension {psi.size} does not match rep dimension {rep.dim}")
    return group_element(rep, point) @ psi

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
from typing import NamedTuple

import numpy as np

from .errors import ZeroFiducialError
from .hilbert import _fix_phase, as_state, hermitian_split, hermitian_tensor, hermiticity_defect
from .liegroup import LieAlgebraRep

HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class PullbackTensor:
    """Constant coefficient matrix of a pulled-back tensor.

    ``coefficients`` is Hermitian; its real part is the metric coefficient
    matrix and its imaginary part the two-form one.  ``fiducial`` stores the
    normalised state the expectations were taken at (a ``(P, d)`` stack of
    them gives ``(P, n, n)`` coefficients), and ``multiplier_form``
    the central-extension two-form of the generators (``None`` when there is
    none), which :func:`qpt.weyl.lagrangian_restriction` reads.
    """

    coefficients: np.ndarray
    projective: bool
    fiducial: np.ndarray
    multiplier_form: np.ndarray | None = None


class CoordinateTensor(NamedTuple):
    """Metric and two-form coordinate matrices, ``(m, m)`` at one chart
    point or ``(P, m, m)`` on a stack."""

    metric: np.ndarray
    two_form: np.ndarray


def _normalized_fiducial(fiducial) -> np.ndarray:
    """Unit fiducial ``(d,)``, or ``(P, d)`` stack of them, with each global
    phase stripped: no rounding residue."""
    psi = np.asarray(fiducial, dtype=complex)
    stack = psi.ndim == 2
    as_state(psi.reshape(-1) if stack else psi)  # finite and nonempty
    # Each vector is first scaled by a power of two that brings its largest
    # modulus into [1, 2), so its norm neither overflows nor underflows.  The
    # scaling is exact: an ordinary fiducial keeps its bits.
    exponent = np.frexp(np.abs(psi).max(axis=-1, keepdims=True))[1] - 1
    psi = psi.copy()
    psi.real, psi.imag = np.ldexp(psi.real, -exponent), np.ldexp(psi.imag, -exponent)
    # The one-vector norm rounds differently from its row-wise form.
    n = np.linalg.norm(psi, axis=-1, keepdims=True) if stack else np.linalg.norm(psi)
    if np.any(n <= 0.0):
        raise ZeroFiducialError("fiducial vector has zero norm")
    return _fix_phase(psi / n)


def covariance_matrix(
    rep: LieAlgebraRep, fiducial, projective: bool = False
) -> PullbackTensor:
    """Second-moment matrix ``<0|R_j R_k|0>`` of the generators: the
    Hermitian tensor on the tangent vectors ``R_j |0>``, ``(n, n)`` for one
    fiducial ``(d,)`` or ``(P, n, n)`` for a ``(P, d)`` stack of them.

    The fiducial is normalised internally; with ``projective=True`` the
    product of first moments is subtracted, which makes the result invariant
    under rescaling of the fiducial and positive semidefinite in its real
    part.
    """
    psi = _normalized_fiducial(fiducial)
    if psi.shape[-1] != rep.dim:
        raise ValueError(f"fiducial dimension {psi.shape[-1]} does not match rep dimension {rep.dim}")
    return PullbackTensor(
        coefficients=hermitian_tensor(psi, rep.apply(psi), projective),
        projective=projective,
        fiducial=psi,
        multiplier_form=rep.multiplier_form,
    )


def _as_tensor(rep: LieAlgebraRep, fiducial, projective: bool = False) -> PullbackTensor:
    """The pulled-back tensor of ``fiducial``: the argument itself when it is
    already a :class:`PullbackTensor` of that kind, so that a check battery
    evaluates each tensor once and hands it on, else its
    :func:`covariance_matrix`."""
    if isinstance(fiducial, PullbackTensor):
        if fiducial.projective != projective:
            kind = "projective" if projective else "linear"
            raise ValueError(f"expected the {kind} pulled-back tensor")
        return fiducial
    return covariance_matrix(rep, fiducial, projective=projective)


def split(t: PullbackTensor) -> tuple[np.ndarray, np.ndarray]:
    """Split coefficients into (real symmetric metric, real antisymmetric form).

    Requires the coefficient matrix to be Hermitian; the two outputs
    reconstruct it as ``metric + 1j * form``.
    """
    c = t.coefficients
    defect = float(hermiticity_defect(c))
    if defect > HERMITICITY_ATOL * max(1.0, float(np.abs(c).max())):
        raise ValueError(f"coefficient matrix is not Hermitian: defect {defect:.3e}")
    return hermitian_split(c)


def first_moments(rep: LieAlgebraRep, psi) -> np.ndarray:
    """First moments ``<psi|R_j|psi>`` of the generators at a unit state,
    real because the generators are Hermitian."""
    return np.real(rep.expectations(psi))


def multiplier_consistency(rep: LieAlgebraRep, fiducial) -> float:
    """Residual of ``2 Im(T)[j,k] = c[j,k,r] <R_r> + omega[j,k]``.

    The antisymmetric part of the pulled-back tensor is the expectation of
    the commutator identity; the residual is the max-norm defect.
    ``fiducial`` is a state or its linear :class:`PullbackTensor`.
    """
    t = _as_tensor(rep, fiducial)
    first = first_moments(rep, t.fiducial)
    expected = np.tensordot(rep.structure_constants, first, axes=([2], [0])) + rep.omega()
    return float(np.abs(2.0 * t.coefficients.imag - expected).max())


def degeneracy_directions(
    rep: LieAlgebraRep, fiducial, tol: float = 1e-8
) -> list[np.ndarray]:
    """Null directions of the projective metric coefficient matrix.

    Each returned unit vector ``u`` satisfies
    ``(u . R) |0> = <u . R> |0>`` within tolerance: the corresponding
    subalgebra moves the fiducial ray by a phase only.  Directions are
    sign-fixed so their first significant component is positive.  The list
    is empty when the projective metric has full rank.  ``fiducial`` is a
    state or its projective :class:`PullbackTensor`.
    """
    metric, _ = split(_as_tensor(rep, fiducial, projective=True))
    eigvals, eigvecs = np.linalg.eigh(metric)
    out = []
    for val, vec in zip(eigvals, eigvecs.T):
        if val <= tol:
            pivot = np.flatnonzero(np.abs(vec) > 1e-9)
            if pivot.size and vec[pivot[0]] < 0:
                vec = -vec
            out.append(vec)
    return out


def evaluate_at(t: PullbackTensor, theta) -> CoordinateTensor:
    """Contract constant coefficients with coframe components.

    ``theta`` has shape ``(n, m)`` at one chart point or ``(P, n, m)`` on a
    stack, as :func:`qpt.liegroup.euler_coframes` returns it; the result holds
    the coordinate matrices of shape ``(..., m, m)``,
    ``G[a, b] = sum_jk Re(T)[j,k] theta[j,a] theta[k,b]`` and likewise with
    the imaginary part for the two-form.  Symmetry and antisymmetry hold to
    rounding, not bitwise: ``G[a, b]`` and ``G[b, a]`` are summed in
    different orders, so their last bits can differ.
    """
    metric_c, form_c = split(t)
    theta = np.asarray(theta)
    if theta.shape[-2] != metric_c.shape[0]:
        raise ValueError(
            f"coframe has {theta.shape[-2]} forms but tensor has {metric_c.shape[0]}"
        )
    theta_t = np.swapaxes(theta, -1, -2)
    return CoordinateTensor(theta_t @ metric_c @ theta, theta_t @ form_c @ theta)


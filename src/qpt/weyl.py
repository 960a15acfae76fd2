"""Weyl systems on truncated Fock space, factorised over modes.

Displacement operators ``W(v) = expm(1j R(v))`` with
``R(v) = sum_j v_j R_j`` over the generator order ``(Q^1..Q^n, P^1..P^n)``
realise the canonical commutation relations up to truncation.  Vacuum
second moments are exact on the truncated space (cutoff >= 3), so the
pulled-back tensor on the symplectic vector space is computed without
truncation error; only displacement products feel the cutoff, and that
error is measured rather than assumed.

Sign conventions are pinned by ``[Q, P] = 1j``, which fixes the conjugation
multiplier to ``W(v1) W(v2) = exp(-1j omega(v1, v2)) W(v2) W(v1)``.

Factorised backend.  The n-mode space is the tensor product of n copies of
one truncated mode, and ``Q^m``, ``P^m`` act as the single-mode ``Q``, ``P``
on factor ``m`` and as the identity elsewhere.  A state is a flat vector in
Kronecker order (mode 0 most significant), read as a ``(cutoff,) * modes``
tensor, and :func:`apply_mode` applies a single-mode matrix along one of its
axes.  No Weyl computation forms a multi-mode operator as a dense matrix:

* Closure.  A :class:`WeylSystem` holds one single-mode rep,
  ``heisenberg_rep(1, cutoff)``, whose closure is checked on its low-Fock
  mask.  Operators on different factors commute exactly, truncated or not
  (``(A x I)(I x B) = A x B = (I x B)(A x I)``), so every cross-mode
  commutator vanishes by construction and ``[Q^m, P^m] = [Q, P] x I`` holds
  wherever the single-mode identity holds.  The ``vacuum-commutator`` check
  of :func:`qpt.checks.weyl_checks` still evaluates every pair, cross-mode
  included, on the vacuum.
* Exponentials.  For the same reason
  ``W(v) = (x)_m expm(1j (v_{q_m} Q + v_{p_m} P))``: one ``cutoff``-sized
  ``expm`` per mode, by the numpy scaling-and-squaring Padé-13 exponential
  :func:`_expm` (Higham 2005), so no Weyl run needs SciPy.
* Cost.  One application of a single-mode matrix costs
  ``O(cutoff**(modes + 1))``, so a displacement of a state costs
  ``O(modes * cutoff**(modes + 1))`` instead of a dense exponential of a
  ``cutoff**modes``-sized matrix.

Dense multi-mode operators remain only where they are scattered from
:func:`qpt.fock.ladder_entries`, under its own size budget: at the first
read of ``generators`` of a multi-mode :func:`qpt.liegroup.heisenberg_rep`
(``verify`` on a ``heisenberg`` group target applies that rep from its
entries and never reads it), and in :func:`qpt.fock.position_momentum`, the
oracle of the tests and of :attr:`WeylSystem.position_ops`.  The two
functions that build a :class:`qpt.pullback.PullbackTensor` import that
module when they run, so setting up a Weyl system does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import fock
from .errors import NotLagrangianError
from .hilbert import hermitian_tensor
from .liegroup import LieAlgebraRep, heisenberg_rep

if TYPE_CHECKING:
    from .pullback import PullbackTensor

# Largest Fock space, cutoff**modes, a Weyl system may hold: 2**20 states is
# a 16 MiB complex state vector (modes 4 at cutoff 32).  The defect checks
# keep a few such vectors at cutoff 32 for any requested cutoff.
MAX_STATES = 2**20


@dataclass(frozen=True)
class WeylSystem:
    """``modes`` copies of one validated single-mode rep ``(Q, P)``."""

    modes: int
    cutoff: int
    mode_rep: LieAlgebraRep

    @property
    def dim(self) -> int:
        return self.cutoff**self.modes

    @property
    def symplectic_form(self) -> np.ndarray:
        return fock.symplectic_form(self.modes)

    @property
    def position_ops(self) -> np.ndarray:
        """Dense ``Q^1..Q^n`` on the full space, an oracle for small sizes;
        no Weyl computation uses it."""
        return fock.position_momentum(self.modes, self.cutoff)[: self.modes]

    @property
    def momentum_ops(self) -> np.ndarray:
        """Dense ``P^1..P^n`` on the full space, as :attr:`position_ops`."""
        return fock.position_momentum(self.modes, self.cutoff)[self.modes :]

    def vacuum(self) -> np.ndarray:
        return fock.vacuum(self.modes, self.cutoff)


def build_weyl(modes: int, cutoff: int, paths=(None, None)) -> WeylSystem:
    """Build ``Q = (a + a^dag)/sqrt(2)``, ``P = 1j (a^dag - a)/sqrt(2)`` on
    one mode truncated at ``cutoff`` levels, shared by ``modes`` modes.

    Refuses a Fock space of more than :data:`MAX_STATES` states before any
    allocation, naming the spec ``paths`` of ``modes`` and ``cutoff``.
    """
    fock.check_size(modes, cutoff, MAX_STATES, "Weyl system", paths)
    return WeylSystem(modes, cutoff, heisenberg_rep(1, cutoff))


def apply_mode(op: np.ndarray, state: np.ndarray, mode: int) -> np.ndarray:
    """Apply the single-mode ``(N, N)`` matrix ``op`` to factor ``mode`` of a
    flat Kronecker-ordered state over ``(N,) * modes``."""
    n = op.shape[1]
    return (op @ state.reshape(n**mode, n, -1)).reshape(state.shape)


def generator_states(system: WeylSystem, state, transpose: bool = False) -> np.ndarray:
    """Stack ``R_j |state>`` over the generator order ``(Q^1..Q^n, P^1..P^n)``.

    With ``transpose`` the stack holds ``R_j^T |state>``; applied to
    ``vac.conj()`` its rows are the bras ``<0| R_j``.
    """
    ops = system.mode_rep.generators
    if transpose:
        ops = np.swapaxes(ops, 1, 2)
    return np.array([apply_mode(op, state, m) for op in ops for m in range(system.modes)])


# Padé-13 numerator coefficients b_0..b_13 and the largest 1-norm theta_13 at
# which the unscaled approximant is accurate to double precision (Higham,
# SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  The coefficients are divided
# by b_0, so that the zero matrix maps to the identity exactly.
_PADE13 = tuple(b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640,
    1323241920, 40840800, 960960, 16380, 182, 1,
))
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by scaling and squaring of the
    degree-13 Padé approximant (Higham 2005): ``a`` is scaled by ``2**-s``
    with ``s = ceil(log2(||a||_1 / theta_13))``, the approximant is one
    linear solve, and ``s`` squarings undo the scaling."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def displacement(system: WeylSystem, v) -> np.ndarray:
    """Per-mode factors of ``W(v) = expm(1j sum_j v_j R_j)`` for a real
    phase-space vector: a ``(modes, N, N)`` stack ``U_m`` with
    ``W(v) = U_0 x U_1 x ... x U_{n-1}``.

    Each factor is the numpy Padé exponential :func:`_expm` of
    ``1j (v_q Q + v_p P)``.  Padé, not the ``eigh``-based
    :func:`qpt.liegroup.unitary_exponential`: at the rounding floor of the
    one-mode defects an eigenbasis makes them rise with the cutoff, which
    the ``weyl-defect-monotone`` check reads as growth.
    """
    v = np.asarray(v, dtype=float)
    modes = system.modes
    if v.shape != (2 * modes,):
        raise ValueError(f"displacement vector must have length {2 * modes}")
    if not np.all(np.isfinite(v)):
        raise ValueError("displacement vector has non-finite entries")
    gens = system.mode_rep.generators
    return np.array(
        [_expm(1j * np.tensordot(v[[m, modes + m]], gens, axes=1)) for m in range(modes)]
    )


def displace(factors: np.ndarray, state: np.ndarray) -> np.ndarray:
    """``W |state>`` for the per-mode factors returned by :func:`displacement`."""
    for mode, u in enumerate(factors):
        state = apply_mode(u, state, mode)
    return state


def weyl_defect(system: WeylSystem, v1, v2) -> float:
    """Truncation defect of the exchange relation on the vacuum.

    Returns ``|| (W(v1) W(v2) - exp(-1j omega(v1, v2)) W(v2) W(v1)) |0> ||``,
    which vanishes in the untruncated limit and decreases with cutoff for
    moderate displacements.  The difference vector is formed before the
    norm is taken: expanding the squared norm through per-mode overlaps
    cancels catastrophically once the defect is small.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    w1 = displacement(system, v1)
    w2 = displacement(system, v2)
    phase = np.exp(-1j * float(v1 @ system.symplectic_form @ v2))
    vac = system.vacuum()
    difference = displace(w1, displace(w2, vac)) - phase * displace(w2, displace(w1, vac))
    return float(np.linalg.norm(difference))


def defect_convergence(modes: int, v1, v2, cutoffs=(8, 16, 32)) -> list[float]:
    """Weyl-relation defect at a sequence of cutoffs (one system each)."""
    return [weyl_defect(build_weyl(modes, c), v1, v2) for c in cutoffs]


def gaussian_covariance(system: WeylSystem, projective: bool = False) -> PullbackTensor:
    """Pulled-back tensor of the vacuum orbit over the 2n generators: the
    Hermitian tensor on the mode-factorised tangent vectors ``R_j |0>``.

    The real part is ``(1/2) I`` and the imaginary part ``(1/2) omega``;
    both are exact on the truncated space, and the projective flag changes
    nothing because the vacuum first moments vanish.
    """
    from .pullback import PullbackTensor

    vac = system.vacuum()
    return PullbackTensor(
        coefficients=hermitian_tensor(vac, generator_states(system, vac), projective),
        projective=projective,
        fiducial=vac,
        multiplier_form=system.symplectic_form,
    )


def lagrangian_restriction(t: PullbackTensor, subspace) -> PullbackTensor:
    """Restrict a Weyl pulled-back tensor to a Lagrangian subspace.

    ``subspace`` lists either generator indices or real 2n-vectors; it must
    be n-dimensional and isotropic for the symplectic form.  On such a
    subspace the two-form part dies identically and only the Euclidean
    metric survives.
    """
    omega = t.multiplier_form
    if omega is None:
        raise ValueError("lagrangian_restriction needs a tensor built from a Weyl system")
    n2 = omega.shape[0]
    modes = n2 // 2
    rows = []
    for entry in subspace:
        if isinstance(entry, (int, np.integer)):
            row = np.zeros(n2)
            row[int(entry)] = 1.0
        else:
            row = np.asarray(entry, dtype=float)
            if row.shape != (n2,):
                raise ValueError(f"direction vectors must have length {n2}")
        rows.append(row)
    s = np.array(rows)
    if s.shape[0] != modes:
        raise NotLagrangianError(
            f"a Lagrangian subspace of {n2} phase-space dimensions has dimension "
            f"{modes}, got {s.shape[0]}"
        )
    pairings = s @ omega @ s.T
    worst = np.unravel_index(np.abs(pairings).argmax(), pairings.shape)
    if float(np.abs(pairings).max()) > 1e-10:
        raise NotLagrangianError(
            f"subspace is not Lagrangian: omega(u_{worst[0]}, u_{worst[1]}) = "
            f"{pairings[worst]:.3e}",
            violating_pair=worst,
        )
    from .pullback import PullbackTensor

    restricted = s @ t.coefficients @ s.T
    return PullbackTensor(
        coefficients=restricted,
        projective=t.projective,
        fiducial=t.fiducial,
    )


def gaussian_moment_oracle(
    j: int, k: int, n_modes: int, quadrature_points: int = 64
) -> float:
    """Gaussian vacuum moment ``I[j, k]`` by the trapezoidal rule: entry
    ``(j, k)`` of :func:`gaussian_moments`."""
    if not (0 <= j < n_modes and 0 <= k < n_modes):
        raise ValueError("moment indices must address position axes")
    return float(gaussian_moments(n_modes, quadrature_points)[j, k])


def gaussian_moments(n_modes: int, quadrature_points: int = 64) -> np.ndarray:
    """Every Gaussian vacuum moment ``I[j, k]``, an ``(n_modes, n_modes)``
    array, from one quadrature rule.

    ``I[j, k] = N^2 * integral d^n q exp(-q^2) q_j q_k`` with the
    normalisation ``N^2 pi^(n/2) = 1``, factorised over axes into the
    one-axis integrals of ``exp(-x^2) x^p`` for ``p`` = 0, 1, 2.  Each is
    the trapezoidal rule on ``quadrature_points`` uniform nodes over
    ``[-sqrt(points), sqrt(points)]``.  For a Gaussian the rule's error
    falls like ``exp(-pi^2 / h^2)`` in the node spacing ``h`` and the cut
    tails like ``exp(-points)``: at the default 64 nodes the moments are
    exact to rounding, and at the floor of 32 the tails leave about 2e-13.
    No Fock matrix, ladder operator or Hermite recurrence enters, so the
    rule is independent of what it checks: the oracle for the vacuum second
    moments in :func:`qpt.checks.weyl_checks`.
    """
    if quadrature_points < 32:
        raise ValueError("quadrature_points must be at least 32")
    nodes = np.linspace(-1.0, 1.0, quadrature_points) * np.sqrt(quadrature_points)
    weights = np.full(quadrature_points, nodes[1] - nodes[0])
    weights[[0, -1]] /= 2
    weights *= np.exp(-nodes**2)
    integrals = np.array([weights.sum(), weights @ nodes, weights @ nodes**2])
    axes = np.eye(n_modes, dtype=int)
    powers = axes[:, None, :] + axes[None, :, :]  # powers[j, k, axis] of q_axis in q_j q_k
    return integrals[powers].prod(axis=-1) / np.pi ** (n_modes / 2)

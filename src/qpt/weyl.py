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
  ``expm`` per mode.
* Cost.  One application of a single-mode matrix costs
  ``O(cutoff**(modes + 1))``, so a displacement of a state costs
  ``O(modes * cutoff**(modes + 1))`` instead of a dense exponential of a
  ``cutoff**modes``-sized matrix.

Dense multi-mode operators remain only in :func:`qpt.fock.position_momentum`,
under its own size budget: through :func:`qpt.liegroup.heisenberg_rep` for
the ``heisenberg`` builtin of ``rep_from_spec`` (``verify`` on a group
target), and as oracles for the tests (``heisenberg_rep`` and
:attr:`WeylSystem.position_ops`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from . import fock
from .errors import NotLagrangianError
from .liegroup import LieAlgebraRep, heisenberg_rep
from .pullback import PullbackTensor, second_moments

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


def build_weyl(modes: int, cutoff: int) -> WeylSystem:
    """Build ``Q = (a + a^dag)/sqrt(2)``, ``P = 1j (a^dag - a)/sqrt(2)`` on
    one mode truncated at ``cutoff`` levels, shared by ``modes`` modes.

    Refuses a Fock space of more than :data:`MAX_STATES` states before any
    allocation.
    """
    fock.check_size(modes, cutoff, MAX_STATES, "Weyl system")
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


def displacement(system: WeylSystem, v) -> np.ndarray:
    """Per-mode factors of ``W(v) = expm(1j sum_j v_j R_j)`` for a real
    phase-space vector: a ``(modes, N, N)`` stack ``U_m`` with
    ``W(v) = U_0 x U_1 x ... x U_{n-1}``."""
    v = np.asarray(v, dtype=float)
    modes = system.modes
    if v.shape != (2 * modes,):
        raise ValueError(f"displacement vector must have length {2 * modes}")
    if not np.all(np.isfinite(v)):
        raise ValueError("displacement vector has non-finite entries")
    gens = system.mode_rep.generators
    return np.array(
        [expm(1j * np.tensordot(v[[m, modes + m]], gens, axes=1)) for m in range(modes)]
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
    """Pulled-back tensor of the vacuum orbit over the 2n generators.

    The real part is ``(1/2) I`` and the imaginary part ``(1/2) omega``;
    both are exact on the truncated space, and the projective flag changes
    nothing because the vacuum first moments vanish.
    """
    vac = system.vacuum()
    return PullbackTensor(
        coefficients=second_moments(vac, generator_states(system, vac), projective),
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
    restricted = s @ t.coefficients @ s.T
    return PullbackTensor(
        coefficients=restricted,
        projective=t.projective,
        fiducial=t.fiducial,
    )


def gaussian_moment_oracle(
    j: int, k: int, n_modes: int, quadrature_points: int = 64
) -> float:
    """Gaussian vacuum moment ``I[j, k]`` by Gauss-Hermite quadrature.

    Computes ``N^2 * integral d^n q exp(-q^2) q_j q_k`` with the
    normalisation ``N^2 pi^(n/2) = 1``, factorised over axes.  Independent
    of the Fock realisation; serves as the cross-check oracle for the
    vacuum second moments.
    """
    if quadrature_points < 32:
        raise ValueError("quadrature_points must be at least 32")
    if not (0 <= j < n_modes and 0 <= k < n_modes):
        raise ValueError("moment indices must address position axes")
    nodes, weights = hermgauss(quadrature_points)
    plain = float(weights.sum())  # integral of exp(-x^2)
    first = float(weights @ nodes)
    second = float(weights @ nodes**2)
    factors = []
    for axis in range(n_modes):
        power = (axis == j) + (axis == k)
        factors.append((plain, first, second)[power])
    return float(np.prod(factors) / np.pi ** (n_modes / 2))

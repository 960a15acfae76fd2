"""Weyl systems on truncated Fock space.

Displacement operators ``W(v) = expm(1j R(v))`` with
``R(v) = sum_j v_j R_j`` over the generator order ``(Q^1..Q^n, P^1..P^n)``
realise the canonical commutation relations up to truncation.  Vacuum
second moments are exact on the truncated space (cutoff >= 3), so the
pulled-back tensor on the symplectic vector space is computed without
truncation error; only displacement products feel the cutoff, and that
error is measured rather than assumed.

Sign conventions are pinned by ``[Q, P] = 1j``, which fixes the conjugation
multiplier to ``W(v1) W(v2) = exp(-1j omega(v1, v2)) W(v2) W(v1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm

from . import fock
from .errors import NotLagrangianError
from .liegroup import LieAlgebraRep, heisenberg_rep
from .pullback import PullbackTensor, covariance_matrix


@dataclass(frozen=True)
class WeylSystem:
    """Truncated position/momentum realisation: one validated Heisenberg rep."""

    modes: int
    cutoff: int
    rep: LieAlgebraRep

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def generators(self) -> np.ndarray:
        return self.rep.generators

    @property
    def position_ops(self) -> np.ndarray:
        return self.rep.generators[: self.modes]

    @property
    def momentum_ops(self) -> np.ndarray:
        return self.rep.generators[self.modes :]

    @property
    def symplectic_form(self) -> np.ndarray:
        return self.rep.multiplier_form

    def vacuum(self) -> np.ndarray:
        return fock.vacuum(self.modes, self.cutoff)


def build_weyl(modes: int, cutoff: int) -> WeylSystem:
    """Build ``Q = (a + a^dag)/sqrt(2)``, ``P = 1j (a^dag - a)/sqrt(2)``
    per mode on a Fock space truncated at ``cutoff`` levels."""
    return WeylSystem(modes, cutoff, heisenberg_rep(modes, cutoff))


def displacement(system: WeylSystem, v) -> np.ndarray:
    """Unitary ``expm(1j sum_j v_j R_j)`` for a real phase-space vector."""
    v = np.asarray(v, dtype=float)
    n = 2 * system.modes
    if v.shape != (n,):
        raise ValueError(f"displacement vector must have length {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("displacement vector has non-finite entries")
    return expm(1j * np.tensordot(v, system.generators, axes=1))


def weyl_defect(system: WeylSystem, v1, v2) -> float:
    """Truncation defect of the exchange relation on the vacuum.

    Returns ``|| (W(v1) W(v2) - exp(-1j omega(v1, v2)) W(v2) W(v1)) |0> ||``,
    which vanishes in the untruncated limit and decreases with cutoff for
    moderate displacements.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    w1 = displacement(system, v1)
    w2 = displacement(system, v2)
    phase = np.exp(-1j * float(v1 @ system.symplectic_form @ v2))
    vac = system.vacuum()
    return float(np.linalg.norm(w1 @ (w2 @ vac) - phase * (w2 @ (w1 @ vac))))


def defect_convergence(modes: int, v1, v2, cutoffs=(8, 16, 32)) -> list[float]:
    """Weyl-relation defect at a sequence of cutoffs (one system each)."""
    return [weyl_defect(build_weyl(modes, c), v1, v2) for c in cutoffs]


def gaussian_covariance(system: WeylSystem, projective: bool = False) -> PullbackTensor:
    """Pulled-back tensor of the vacuum orbit over the 2n generators.

    The real part is ``(1/2) I`` and the imaginary part ``(1/2) omega``;
    both are exact on the truncated space, and the projective flag changes
    nothing because the vacuum first moments vanish.
    """
    return covariance_matrix(system.rep, system.vacuum(), projective=projective)


def lagrangian_restriction(t: PullbackTensor, subspace) -> PullbackTensor:
    """Restrict a Weyl pulled-back tensor to a Lagrangian subspace.

    ``subspace`` lists either generator indices or real 2n-vectors; it must
    be n-dimensional and isotropic for the symplectic form.  On such a
    subspace the two-form part dies identically and only the Euclidean
    metric survives.
    """
    if t.rep is None or t.rep.multiplier_form is None:
        raise ValueError("lagrangian_restriction needs a tensor built from a Weyl system")
    omega = t.rep.multiplier_form
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
        rep=None,
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

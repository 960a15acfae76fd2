"""Quantum geometric tensor of parametrized Hamiltonian eigenstates.

For a family ``H(lam)`` with a nondegenerate level ``a``, the eigenstate
derivative follows from first-order perturbation theory,

    d|a> = sum_{b != a} |b> <b| dH |a> / (E_a - E_b),

and the pulled-back tensor is
``h[mu, nu] = <d_mu psi | d_nu psi> - <psi | d_nu psi><d_mu psi | psi>``.
In the spectral gauge the second term vanishes identically, but it is
evaluated anyway so the formula is checked as stated.  An independent
finite-difference evaluation with explicit phase alignment serves as the
oracle for the spectral route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLevelError, NumericalRefusal, SpecError, require_integer
from .hilbert import _fix_phase, as_operator, is_hermitian
from .liegroup import (
    EULER_GENERATOR_SCALE,
    LEFT_INVARIANT,
    LieAlgebraRep,
    _complex_matrix,
    euler_point,
    group_element,
    su2_coframe,
)
from .pullback import covariance_matrix, evaluate_at

# Relative gap floor: levels closer than this times the spectral radius
# count as degenerate.
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class QGTResult:
    """Tensor of one family at one parameter point."""

    point: np.ndarray
    h: np.ndarray  # (m, m) complex, Hermitian
    metric: np.ndarray  # Re part, symmetrised
    curvature_form: np.ndarray  # minus the antisymmetrised Im part
    gap: float


class HamiltonianFamily:
    """Parametrized family of Hermitian matrices with derivative access.

    Affine families ``H0 + sum_mu lam_mu H_mu`` carry analytic derivatives;
    callable families differentiate by central differences unless an
    analytic derivative callback is supplied.
    """

    def __init__(self, evaluate, param_dim, derivative=None, fd_step=1e-5, level=0):
        if param_dim < 1:
            raise ValueError("param_dim must be positive")
        self._evaluate = evaluate
        self._derivative = derivative
        self.param_dim = int(param_dim)
        self.fd_step = float(fd_step)
        self.level = int(level)

    @classmethod
    def affine(cls, h0, terms, level=0) -> "HamiltonianFamily":
        h0 = as_operator(h0)
        terms = [as_operator(t) for t in terms]
        for t in terms:
            if t.shape != h0.shape:
                raise ValueError("affine terms must match the base matrix shape")

        def evaluate(lam):
            lam = np.asarray(lam, dtype=float)
            out = h0.copy()
            for coeff, term in zip(lam, terms):
                out = out + coeff * term
            return out

        def derivative(lam, mu):
            return terms[mu]

        return cls(evaluate, param_dim=len(terms), derivative=derivative, level=level)

    @classmethod
    def from_callable(cls, fn, param_dim, derivative=None, fd_step=1e-5, level=0):
        return cls(fn, param_dim, derivative=derivative, fd_step=fd_step, level=level)

    def hamiltonian(self, lam) -> np.ndarray:
        lam = self._point(lam)
        h = as_operator(self._evaluate(lam))
        if not is_hermitian(h, atol=1e-10 * h.shape[0] * max(1.0, float(np.abs(h).max()))):
            raise ValueError(f"family is not Hermitian at {lam.tolist()}")
        return h

    def derivative(self, lam, mu) -> np.ndarray:
        lam = self._point(lam)
        if not 0 <= mu < self.param_dim:
            raise ValueError(f"direction {mu} out of range for {self.param_dim} parameters")
        if self._derivative is not None:
            return as_operator(self._derivative(lam, mu))
        dx = np.zeros(self.param_dim)
        dx[mu] = self.fd_step
        plus = as_operator(self._evaluate(lam + dx))
        minus = as_operator(self._evaluate(lam - dx))
        return (plus - minus) / (2 * self.fd_step)

    def _point(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if lam.shape != (self.param_dim,):
            raise ValueError(f"expected {self.param_dim} parameters, got shape {lam.shape}")
        return lam


def bloch_family(level: int = 0) -> HamiltonianFamily:
    """Two-level family ``n(theta, phi) . sigma`` over the sphere angles."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def evaluate(lam):
        th, ph = lam
        return np.sin(th) * np.cos(ph) * sx + np.sin(th) * np.sin(ph) * sy + np.cos(th) * sz

    def derivative(lam, mu):
        th, ph = lam
        if mu == 0:
            return np.cos(th) * np.cos(ph) * sx + np.cos(th) * np.sin(ph) * sy - np.sin(th) * sz
        return -np.sin(th) * np.sin(ph) * sx + np.sin(th) * np.cos(ph) * sy

    return HamiltonianFamily(evaluate, param_dim=2, derivative=derivative, level=level)


def landau_zener_family(delta: float = 1.0, level: int = 0) -> HamiltonianFamily:
    """Avoided crossing ``lam * sigma_z + delta * sigma_x``."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return HamiltonianFamily.affine(delta * sx, [sz], level=level)


def orbit_family(
    rep: LieAlgebraRep, direction, level: int = 0
) -> HamiltonianFamily:
    """Conjugated family ``H(g) = U(g) (-n . R) U(g)^dag`` over the Euler chart.

    The derivative is analytic: ``d H = [dU U^-1, H]`` with
    ``dU U^-1 = 1j sum_j (R_j / 2) theta_j`` in the right-invariant coframe.
    """
    n = np.asarray(direction, dtype=float)
    if n.shape != (rep.n_generators,):
        raise ValueError("direction must have one entry per generator")
    h0 = -np.tensordot(n, rep.generators, axes=1)
    gens = rep.generators

    def evaluate(lam):
        u = group_element(rep, euler_point(*lam))
        return u @ h0 @ u.conj().T

    def derivative(lam, mu):
        point = euler_point(*lam)
        theta = su2_coframe(point).theta * EULER_GENERATOR_SCALE
        velocity = 1j * np.tensordot(theta[:, mu], gens, axes=1)
        h = evaluate(lam)
        return velocity @ h - h @ velocity

    return HamiltonianFamily(evaluate, param_dim=3, derivative=derivative, level=level)


def ham_from_spec(spec: dict) -> HamiltonianFamily:
    """Build a family from its JSON description, found at ``$.hamiltonian``.

    Accepted forms: ``{"affine": {"h0": M, "terms": [M...]}}`` with complex
    entries as ``[re, im]`` pairs, ``{"builtin": "bloch"}``,
    ``{"builtin": "landau_zener", "delta": d}`` or
    ``{"builtin": "orbit", "rep": {...}, "direction": [...]}``, each with an
    optional integer ``"level"``.
    """
    if not isinstance(spec, dict):
        raise SpecError("hamiltonian spec must be an object")
    level = require_integer(spec.get("level", 0), "$.hamiltonian.level")
    if "affine" in spec:
        block = spec["affine"]
        if not isinstance(block, dict) or "h0" not in block or "terms" not in block:
            raise SpecError("affine spec needs 'h0' and 'terms'")
        h0 = _complex_matrix(block["h0"])
        terms = [_complex_matrix(t) for t in block["terms"]]
        return HamiltonianFamily.affine(h0, terms, level=level)
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "bloch":
            return bloch_family(level=level)
        if name == "landau_zener":
            return landau_zener_family(float(spec.get("delta", 1.0)), level=level)
        if name == "orbit":
            from .liegroup import rep_from_spec

            if "rep" not in spec or "direction" not in spec:
                raise SpecError("orbit spec needs 'rep' and 'direction'")
            return orbit_family(
                rep_from_spec(spec["rep"], "$.hamiltonian.rep"),
                np.asarray(spec["direction"], dtype=float),
                level=level,
            )
        raise SpecError(f"unknown builtin hamiltonian {name!r}")
    raise SpecError("hamiltonian spec needs 'affine' or 'builtin'")


def _eigensystem(family: HamiltonianFamily, lam):
    h = family.hamiltonian(lam)
    eigvals, eigvecs = np.linalg.eigh(h)
    for idx in range(eigvecs.shape[1]):
        eigvecs[:, idx] = _fix_phase(eigvecs[:, idx])
    return eigvals, eigvecs


def _check_gap(eigvals: np.ndarray, a: int, degeneracy_tol: float | None) -> float:
    if not 0 <= a < eigvals.size:
        raise ValueError(f"level {a} out of range for dimension {eigvals.size}")
    others = np.delete(eigvals, a)
    if others.size == 0:
        return float("inf")
    gap = float(np.abs(others - eigvals[a]).min())
    floor = (
        degeneracy_tol
        if degeneracy_tol is not None
        else DEGENERACY_RTOL * max(float(np.abs(eigvals).max()), 1e-300)
    )
    if gap < floor:
        raise DegenerateLevelError(
            f"level {a} is degenerate within tolerance (gap {gap:.3e} < {floor:.3e})",
            gap=gap,
        )
    return gap


def _spectral_derivative(eigvals, eigvecs, a: int, dh) -> np.ndarray:
    """Spectral sum ``sum_{b != a} |b> <b| dH |a> / (E_a - E_b)``.

    ``dh`` is one derivative matrix ``(d, d)`` or a stack ``(m, d, d)``; the
    result is the derivative vector, or one row per stacked matrix.
    """
    amps = (dh @ eigvecs[:, a]) @ eigvecs.conj()  # <b| dH |a> along the last axis
    others = np.arange(eigvals.size) != a
    coef = np.zeros_like(amps)
    coef[..., others] = amps[..., others] / (eigvals[a] - eigvals[others])
    return coef @ eigvecs.T


def spectral_state_derivative(
    family: HamiltonianFamily, lam, a: int | None = None, mu: int = 0,
    degeneracy_tol: float | None = None,
) -> np.ndarray:
    """Eigenstate derivative along parameter direction ``mu``.

    The component along the level itself is zero (the gauge implicit in the
    spectral sum).  Refuses degenerate levels, reporting the offending gap.
    """
    a = family.level if a is None else a
    eigvals, eigvecs = _eigensystem(family, lam)
    _check_gap(eigvals, a, degeneracy_tol)
    return _spectral_derivative(eigvals, eigvecs, a, family.derivative(lam, mu))


def _assemble(point, derivs, psi: np.ndarray, gap: float) -> QGTResult:
    d = np.asarray(derivs)  # (m, dim): one eigenstate derivative per parameter
    h = d.conj() @ d.T - np.outer(d.conj() @ psi, d @ psi.conj())
    metric = (h.real + h.real.T) / 2
    curvature = -(h.imag - h.imag.T) / 2
    return QGTResult(
        point=np.asarray(point, dtype=float),
        h=h,
        metric=metric,
        curvature_form=curvature,
        gap=gap,
    )


def qgt_tensor(
    family: HamiltonianFamily, lam, a: int | None = None,
    degeneracy_tol: float | None = None,
) -> QGTResult:
    """Geometric tensor at ``lam`` for eigenlevel ``a`` via the spectral sum."""
    a = family.level if a is None else a
    lam = family._point(lam)
    eigvals, eigvecs = _eigensystem(family, lam)
    gap = _check_gap(eigvals, a, degeneracy_tol)
    dhs = np.array([family.derivative(lam, mu) for mu in range(family.param_dim)])
    derivs = _spectral_derivative(eigvals, eigvecs, a, dhs)
    return _assemble(lam, derivs, eigvecs[:, a], gap)


def finite_difference_qgt(
    family: HamiltonianFamily, lam, a: int | None = None, step: float = 1e-5,
    degeneracy_tol: float | None = None,
) -> QGTResult:
    """Independent finite-difference evaluation of the geometric tensor.

    Eigenvectors at displaced points are phase-aligned so their overlap with
    the center state is real positive; the alignment removes the eigensolver
    gauge, which is additionally cancelled by keeping both terms of the
    tensor formula.  Refuses when the alignment overlap drops below 0.5.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a = family.level if a is None else a
    lam = family._point(lam)
    eigvals, eigvecs = _eigensystem(family, lam)
    gap = _check_gap(eigvals, a, degeneracy_tol)
    psi = eigvecs[:, a]

    def aligned_state(point):
        vals, vecs = _eigensystem(family, point)
        _check_gap(vals, a, degeneracy_tol)
        phi = vecs[:, a]
        overlap = np.vdot(psi, phi)
        if abs(overlap) < 0.5:
            raise NumericalRefusal(
                f"alignment overlap {abs(overlap):.3f} below 0.5; "
                "step too large or level crossing"
            )
        return phi * (overlap.conjugate() / abs(overlap))

    derivs = []
    for mu in range(family.param_dim):
        dx = np.zeros(family.param_dim)
        dx[mu] = step
        plus = aligned_state(lam + dx)
        minus = aligned_state(lam - dx)
        derivs.append((plus - minus) / (2 * step))
    return _assemble(lam, derivs, psi, gap)


def orbit_consistency_check(
    rep: LieAlgebraRep,
    fiducial,
    direction=None,
    grid_shape: tuple[int, int] = (5, 5),
    alpha: float = 0.7,
) -> float:
    """Cross-check the group-orbit pullback against the spectral tensor.

    The fiducial must be the nondegenerate ground state of
    ``H0 = -n . R`` for some direction ``n`` (derived from the generator
    first moments when not given).  The conjugated family
    ``H(g) = U(g) H0 U(g)^dag`` is swept over a ``(beta, gamma)`` grid at
    fixed ``alpha``; at every point the real part of the spectral tensor is
    compared entrywise with the projective pullback contracted against the
    left-invariant coframe in generator normalisation.  Returns the largest
    deviation.
    """
    psi = np.asarray(fiducial, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    if direction is None:
        first = np.real(np.einsum("i,nij,j->n", psi.conj(), rep.generators, psi))
        scale = float(np.linalg.norm(first))
        if scale < 1e-12:
            raise NumericalRefusal("cannot infer a direction: generator first moments vanish")
        direction = first / scale
    n = np.asarray(direction, dtype=float)
    h0 = -np.tensordot(n, rep.generators, axes=1)
    eigvals, eigvecs = np.linalg.eigh(h0)
    others = eigvals[1:] - eigvals[0]
    if others.size and float(others.min()) < 1e-8 * max(1.0, float(np.abs(eigvals).max())):
        raise DegenerateLevelError(
            "ground state of the direction Hamiltonian is degenerate",
            gap=float(others.min()) if others.size else 0.0,
        )
    if abs(np.vdot(eigvecs[:, 0], psi)) < 1.0 - 1e-8:
        raise NumericalRefusal("fiducial is not the ground state of -n.R for the given direction")

    family = orbit_family(rep, n)
    t_proj = covariance_matrix(rep, psi, projective=True)
    betas = np.linspace(0.3, np.pi - 0.3, grid_shape[0])
    gammas = np.linspace(0.3, 2 * np.pi - 0.3, grid_shape[1])
    worst = 0.0
    for beta in betas:
        for gamma in gammas:
            point = euler_point(alpha, beta, gamma)
            spectral = qgt_tensor(family, point.coords, a=0)
            coframe = su2_coframe(point, frame=LEFT_INVARIANT).rescaled(
                EULER_GENERATOR_SCALE
            )
            pulled = evaluate_at(t_proj, coframe)
            worst = max(worst, float(np.abs(spectral.metric - pulled.metric).max()))
    return worst

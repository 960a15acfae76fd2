"""Quantum geometric tensor of parametrized Hamiltonian eigenstates.

For a family ``H(lam)`` with a nondegenerate level ``a``, the eigenstate
derivative follows from first-order perturbation theory,

    d|a> = sum_{b != a} |b> <b| dH |a> / (E_a - E_b),

and the pulled-back tensor is
``h[mu, nu] = <d_mu psi | d_nu psi> - <d_mu psi | psi><psi | d_nu psi>``,
the projective :func:`qpt.hilbert.hermitian_tensor` on the tangent vectors
``d_mu psi``.
In the spectral gauge the second term vanishes identically, but it is
evaluated anyway so the formula is checked as stated.  An independent
finite-difference evaluation with explicit phase alignment serves as the
oracle for the spectral route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLevelError, NumericalRefusal, SpecError, require_array, require_integer,
    require_number, require_object,
)
from .hilbert import _fix_phase, as_operator, hermitian_split, hermitian_tensor, hermiticity_defect
from .liegroup import (
    EULER_GENERATOR_SCALE,
    LEFT_INVARIANT,
    LieAlgebraRep,
    euler_coframes,
    euler_elements,
    grid_points,
)
from .pullback import _as_tensor, evaluate_at, first_moments

# Relative gap floor: levels closer than this times the spectral radius
# count as degenerate.
DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class QGTResult:
    """Tensor of one family at one parameter point, or at a stack of them.

    For a stack of ``P`` points every field gains a leading axis of length
    ``P``.
    """

    point: np.ndarray
    h: np.ndarray  # (m, m) complex, Hermitian
    gap: float | np.ndarray

    @property
    def metric(self) -> np.ndarray:
        """Symmetrised real part of ``h``."""
        return hermitian_split(self.h)[0]

    @property
    def curvature_form(self) -> np.ndarray:
        """Minus the antisymmetrised imaginary part of ``h``."""
        return -hermitian_split(self.h)[1]


class HamiltonianFamily:
    """Parametrized family of Hermitian matrices, evaluated on point stacks.

    ``evaluate`` maps a stack of points ``(P, m)`` to its matrices
    ``(P, d, d)``; ``derivative``, when given, maps the stack and its
    matrices to the derivatives along all ``m`` directions at once,
    ``(P, m, d, d)``.  The matrices are None when the caller does not hold
    them, and a derivative that reads them evaluates them itself.  Without
    it the derivatives are central differences with step ``fd_step``.  The
    methods below accept one point ``(m,)`` or a stack ``(P, m)`` and drop
    the stack axis for one point.  :meth:`from_callable` adapts per-point
    callables.
    """

    def __init__(self, evaluate, param_dim, derivative=None, fd_step=1e-5, level=0):
        if param_dim < 1:
            raise ValueError("param_dim must be positive")
        self._evaluate = evaluate
        self._derivative = self._central_differences if derivative is None else derivative
        self.param_dim = int(param_dim)
        self.fd_step = float(fd_step)
        self.level = int(level)

    @classmethod
    def affine(cls, h0, terms, level=0) -> "HamiltonianFamily":
        h0 = as_operator(h0)
        terms = np.array([as_operator(t) for t in terms])
        if terms.shape[1:] != h0.shape:
            raise ValueError("affine terms must match the base matrix shape")

        def evaluate(lam):
            return h0 + np.tensordot(lam, terms, axes=1)

        def derivative(lam, h):
            return np.broadcast_to(terms, (len(lam),) + terms.shape)

        family = cls(evaluate, param_dim=len(terms), derivative=derivative, level=level)
        # H is affine in lam: Hermitian at 0 and at each unit point, it is Hermitian everywhere.
        family.hamiltonian(np.vstack([np.zeros(len(terms)), np.eye(len(terms))]))
        return family

    @classmethod
    def from_callable(cls, fn, param_dim, derivative=None, fd_step=1e-5, level=0):
        """Family from per-point callables ``fn(lam) -> (d, d)`` and
        ``derivative(lam, mu) -> (d, d)``: the single per-point adapter,
        which calls them point by point and stacks the results."""

        def stacked(lam, h):
            dh = [[derivative(p, mu) for mu in range(param_dim)] for p in lam]
            return np.array(dh, dtype=complex)

        return cls(
            lambda lam: np.array([fn(p) for p in lam], dtype=complex), param_dim,
            None if derivative is None else stacked, fd_step=fd_step, level=level,
        )

    def hamiltonian(self, lam) -> np.ndarray:
        """``H`` at a point ``(d, d)`` or a stack ``(P, d, d)``; refuses a
        family that is not Hermitian, naming the first offending point."""
        stack, single = self._stack(lam)
        h = self._call(self._evaluate, stack)
        scale = 1e-10 * h.shape[-1] * np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
        bad = np.flatnonzero(hermiticity_defect(h) > scale)
        if bad.size:
            raise ValueError(f"family is not Hermitian at {stack[bad[0]].tolist()}")
        return h[0] if single else h

    def derivative(self, lam, mu=None, h=None) -> np.ndarray:
        """``dH`` along direction ``mu``, or along all directions when
        ``mu`` is None: ``(..., d, d)`` or ``(..., m, d, d)``.  ``h``, the
        stack ``(P, d, d)`` of ``H`` on a stack ``lam`` when the caller holds
        it, spares a family whose derivative reads ``H`` a second
        evaluation."""
        stack, single = self._stack(lam)
        if mu is not None and not 0 <= mu < self.param_dim:
            raise ValueError(f"direction {mu} out of range for {self.param_dim} parameters")
        dh = self._call(lambda points: self._derivative(points, h), stack, (self.param_dim,))
        if mu is not None:
            dh = dh[:, mu]
        return dh[0] if single else dh

    def _central_differences(self, stack, h=None) -> np.ndarray:
        """All directional derivatives by central differences with ``fd_step``."""
        step = self.fd_step
        diffs = [self._call(self._evaluate, stack + dx) - self._call(self._evaluate, stack - dx)
                 for dx in step * np.eye(self.param_dim)]
        return np.stack(diffs, axis=1) / (2 * step)

    def _stack(self, lam) -> tuple[np.ndarray, bool]:
        """Points as a ``(P, m)`` stack, and whether one point was given."""
        lam = np.asarray(lam, dtype=float)
        stack = np.atleast_2d(lam)
        if lam.ndim > 2 or stack.shape[1] != self.param_dim:
            raise ValueError(f"expected {self.param_dim} parameters per point, got {lam.shape}")
        return stack, lam.ndim < 2

    @staticmethod
    def _call(fn, stack, inner: tuple = ()) -> np.ndarray:
        """``fn(stack)`` as a finite complex ``(P, *inner, d, d)`` array."""
        out = np.asarray(fn(stack), dtype=complex)
        side = out.shape[-1] if out.ndim else 0
        if out.shape != (len(stack), *inner, side, side) or not np.all(np.isfinite(out)):
            raise ValueError(
                f"family gave shape {out.shape} for {len(stack)} points, or non-finite entries"
            )
        return out


def bloch_family(level: int = 0) -> HamiltonianFamily:
    """Two-level family ``n(theta, phi) . sigma`` over the sphere angles."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    def evaluate(lam):
        th, ph = lam.T[..., None, None]  # each (P, 1, 1)
        return np.sin(th) * np.cos(ph) * sx + np.sin(th) * np.sin(ph) * sy + np.cos(th) * sz

    def derivative(lam, h):
        th, ph = lam.T[..., None, None]
        d_th = np.cos(th) * np.cos(ph) * sx + np.cos(th) * np.sin(ph) * sy - np.sin(th) * sz
        d_ph = -np.sin(th) * np.sin(ph) * sx + np.sin(th) * np.cos(ph) * sy
        return np.stack([d_th, d_ph], axis=1)

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
        u = euler_elements(rep, lam)
        return u @ h0 @ u.conj().swapaxes(-1, -2)

    def derivative(lam, h):
        h = (evaluate(lam) if h is None else h)[:, None]
        commutators = 1j * (gens @ h - h @ gens)  # (P, n, d, d): 1j [R_j, H]
        theta = euler_coframes(lam) * EULER_GENERATOR_SCALE  # (P, n, m)
        return np.einsum("pjm,pjab->pmab", theta, commutators)

    return HamiltonianFamily(evaluate, param_dim=3, derivative=derivative, level=level)


def ham_from_spec(spec: dict) -> HamiltonianFamily:
    """Build a family from its JSON description, found at ``$.hamiltonian``.

    Accepted forms: ``{"affine": {"h0": M, "terms": [M...]}}`` with complex
    entries as ``[re, im]`` pairs, ``{"builtin": "bloch"}``,
    ``{"builtin": "landau_zener", "delta": d}`` or
    ``{"builtin": "orbit", "rep": {...}, "direction": [...]}``, each with an
    optional integer ``"level"``.
    """
    spec = require_object(spec, "$.hamiltonian")
    level = require_integer(spec.get("level", 0), "$.hamiltonian.level")
    if "affine" in spec:
        block = require_object(spec["affine"], "$.hamiltonian.affine")
        h0 = require_array(block.get("h0"), "$.hamiltonian.affine.h0", 2, pairs=True)
        terms = require_array(block.get("terms"), "$.hamiltonian.affine.terms", 3, pairs=True)
        try:
            return HamiltonianFamily.affine(h0, terms, level=level)
        except ValueError as exc:
            raise SpecError(f"at $.hamiltonian.affine: {exc}") from exc
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "bloch":
            return bloch_family(level=level)
        if name == "landau_zener":
            delta = require_number(spec.get("delta", 1.0), "$.hamiltonian.delta")
            return landau_zener_family(delta, level=level)
        if name == "orbit":
            from .liegroup import rep_from_spec

            rep = rep_from_spec(spec.get("rep"), "$.hamiltonian.rep")
            direction = require_array(spec.get("direction"), "$.hamiltonian.direction", 1)
            if len(direction) != rep.n_generators:
                raise SpecError(f"at $.hamiltonian.direction: expected {rep.n_generators} numbers")
            return orbit_family(rep, direction, level=level)
        raise SpecError(f"at $.hamiltonian.builtin: unknown builtin hamiltonian {name!r}")
    raise SpecError("at $.hamiltonian: expected an 'affine' or a 'builtin' family")


def _eigensystem(h: np.ndarray):
    """Eigenvalues ``(P, d)`` and phase-fixed eigenvectors ``(P, d, d)``,
    one column per level, of a stack of Hermitian matrices."""
    eigvals, eigvecs = np.linalg.eigh(h)
    return eigvals, _fix_phase(eigvecs.swapaxes(-1, -2)).swapaxes(-1, -2)


def _check_gap(eigvals: np.ndarray, a: int, degeneracy_tol: float | None, points, start=0) -> np.ndarray:
    """Gap of level ``a`` at every point of a stack ``(P, d)``; refuses the
    first point whose gap is below the floor, naming it and its index + ``start``."""
    if not 0 <= a < eigvals.shape[-1]:
        raise ValueError(f"level {a} out of range for dimension {eigvals.shape[-1]}")
    others = np.delete(eigvals, a, axis=-1)
    gaps = np.abs(others - eigvals[:, a, None]).min(axis=-1, initial=np.inf)
    floors = DEGENERACY_RTOL * np.maximum(np.abs(eigvals).max(axis=-1), 1e-300)
    if degeneracy_tol is not None:
        floors[:] = degeneracy_tol
    bad = np.flatnonzero(gaps < floors)
    if bad.size:
        i = bad[0]
        raise DegenerateLevelError(
            f"level {a} is degenerate within tolerance at grid index {start + i}, point "
            f"{np.asarray(points[i]).tolist()} (gap {gaps[i]:.3e} < {floors[i]:.3e})",
            gap=float(gaps[i]),
        )
    return gaps


def _spectral(family: HamiltonianFamily, lam, a: int | None, degeneracy_tol: float | None, start=0):
    """Shared core on a point or a stack: the ``(P, m)`` stack, whether one
    point was given, the level's eigenstates ``(P, d)``, its gaps ``(P,)``
    and the eigenstate derivatives ``(P, m, d)`` from the spectral sum
    ``sum_{b != a} |b> <b| dH |a> / (E_a - E_b)``."""
    a = family.level if a is None else a
    stack, single = family._stack(lam)
    h = family.hamiltonian(stack)
    eigvals, eigvecs = _eigensystem(h)
    gaps = _check_gap(eigvals, a, degeneracy_tol, stack, start)
    psi = eigvecs[..., a]
    amps = (family.derivative(stack, h=h) @ psi[:, None, :, None])[..., 0] @ eigvecs.conj()  # <b| dH |a>
    others = np.arange(eigvals.shape[-1]) != a
    coef = np.zeros_like(amps)
    coef[..., others] = amps[..., others] / (eigvals[:, None, a, None] - eigvals[:, None, others])
    return stack, single, psi, gaps, coef @ eigvecs.swapaxes(-1, -2)


def spectral_state_derivative(
    family: HamiltonianFamily, lam, a: int | None = None, mu: int = 0,
    degeneracy_tol: float | None = None,
) -> np.ndarray:
    """Eigenstate derivative along parameter direction ``mu``, at a point
    ``(d,)`` or on a stack ``(P, d)``.

    The component along the level itself is zero (the gauge implicit in the
    spectral sum).  Refuses degenerate levels, reporting the offending gap.
    """
    if not 0 <= mu < family.param_dim:
        raise ValueError(f"direction {mu} out of range for {family.param_dim} parameters")
    _, single, _, _, derivs = _spectral(family, lam, a, degeneracy_tol)
    return derivs[0, mu] if single else derivs[:, mu]


def qgt_tensor(
    family: HamiltonianFamily, lam, a: int | None = None,
    degeneracy_tol: float | None = None, start: int = 0,
) -> QGTResult:
    """Geometric tensor for eigenlevel ``a`` via the spectral sum, at a point
    ``lam`` of shape ``(m,)`` or on a stack of shape ``(P, m)``.  Refuses, at
    the first such point, a degenerate level or a tensor that is not finite
    (``1 / gap**2`` overflows), naming it and its index plus ``start``."""
    stack, single, psi, gaps, derivs = _spectral(family, lam, a, degeneracy_tol, start)
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_tensor(psi, derivs, projective=True)
    bad = np.flatnonzero(~np.isfinite(h).all(axis=(-2, -1)))
    if bad.size:
        i = bad[0]
        raise NumericalRefusal(
            f"tensor of level {family.level if a is None else a} is not finite at grid index {start + i}, "
            f"point {stack[i].tolist()} (gap {gaps[i]:.3e})"
        )
    if single:
        stack, h, gaps = stack[0], h[0], float(gaps[0])
    return QGTResult(stack, h, gaps)


def finite_difference_qgt(
    family: HamiltonianFamily, lam, a: int | None = None, step: float = 1e-5,
    degeneracy_tol: float | None = None,
) -> QGTResult:
    """Independent finite-difference evaluation of the geometric tensor, at
    a point ``lam`` of shape ``(m,)`` or on a stack of shape ``(P, m)``.

    The eigenstate turns on the scale ``gap / D``, where ``D`` is the
    largest spectral norm of the central difference quotients of ``H`` at
    ``step``, one per direction, taken from ``family.hamiltonian`` alone.
    So each point takes its own step, ``step * min(1, gap / D)``: a narrow
    gap shrinks it, and the relative truncation error stays near that of a
    wide gap at ``step``.  Each direction then costs two displaced stacks,
    one eigensystem each.  Eigenvectors at displaced points are
    phase-aligned so their overlap with the center state is real positive;
    the alignment removes the eigensolver gauge, which is additionally
    cancelled by keeping both terms of the tensor formula.  Refuses when an
    alignment overlap drops below 0.5, naming the first such grid index and
    its point.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a = family.level if a is None else a
    stack, single = family._stack(lam)

    def states(points):
        vals, vecs = _eigensystem(family.hamiltonian(points))
        return vecs[..., a], _check_gap(vals, a, degeneracy_tol, points)

    psi, gaps = states(stack)

    def aligned_states(points):
        phi, _ = states(points)
        overlap = np.einsum("pd,pd->p", psi.conj(), phi)
        size = np.abs(overlap)
        bad = np.flatnonzero(size < 0.5)
        if bad.size:
            i = bad[0]
            raise NumericalRefusal(
                f"alignment overlap {size[i]:.3f} below 0.5 at grid index {i}, point "
                f"{stack[i].tolist()}; step too large or level crossing"
            )
        return phi * (overlap.conj() / size)[:, None]

    units = np.eye(family.param_dim)
    slope = np.max([np.linalg.norm(family.hamiltonian(stack + step * e) - family.hamiltonian(stack - step * e),
                                   ord=2, axis=(-2, -1)) for e in units], axis=0) / (2 * step)
    steps = np.full(len(stack), step)
    narrow = slope > gaps
    steps[narrow] *= gaps[narrow] / slope[narrow]
    derivs = np.stack(
        [(aligned_states(stack + dx) - aligned_states(stack - dx)) / (2 * steps[:, None])
         for dx in steps[:, None] * units[:, None]],  # (m, P, m): each direction's displacements
        axis=1,
    )
    h = hermitian_tensor(psi, derivs, projective=True)
    if single:
        return QGTResult(stack[0], h[0], float(gaps[0]))
    return QGTResult(stack, h, gaps)


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
    deviation.  ``fiducial`` is a state or its projective
    :class:`~qpt.pullback.PullbackTensor`.
    """
    t_proj = _as_tensor(rep, fiducial, projective=True)
    psi = t_proj.fiducial
    if direction is None:
        first = first_moments(rep, psi)
        scale = float(np.linalg.norm(first))
        if scale < 1e-12:
            raise NumericalRefusal("cannot infer a direction: generator first moments vanish")
        direction = first / scale
    n = np.asarray(direction, dtype=float)
    h0 = -np.tensordot(n, rep.generators, axes=1)
    eigvals, eigvecs = np.linalg.eigh(h0)
    # H0 is the family at the identity, Euler angles (0, 0, 0).
    _check_gap(eigvals[None], 0, None, np.zeros((1, 3)))
    if abs(np.vdot(eigvecs[:, 0], psi)) < 1.0 - 1e-8:
        raise NumericalRefusal("fiducial is not the ground state of -n.R for the given direction")

    betas = np.linspace(0.3, np.pi - 0.3, grid_shape[0])
    gammas = np.linspace(0.3, 2 * np.pi - 0.3, grid_shape[1])
    points = grid_points([alpha], betas, gammas)
    spectral = qgt_tensor(orbit_family(rep, n), points, a=0)
    pulled = evaluate_at(t_proj, euler_coframes(points, LEFT_INVARIANT) * EULER_GENERATOR_SCALE)
    return float(np.abs(spectral.metric - pulled.metric).max())

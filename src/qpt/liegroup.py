"""Hermitian matrix representations of Lie algebras and group charts.

Conventions used throughout the package:

* generators ``R_1..R_n`` are Hermitian and close as
  ``[R_j, R_k] = 1j * c[j, k, r] R_r + 1j * omega[j, k] * I``
  where ``c`` is the real structure-constant array (antisymmetric in
  ``j, k``) and ``omega`` an optional antisymmetric multiplier two-form
  carrying central-extension data;
* the builtin su(2) family uses ``R = 2 J`` (twice the angular-momentum
  matrices), so spin 1/2 yields exactly the Pauli matrices and
  ``c[j, k, r] = 2 eps_{jkr}``;
* Euler angles follow the z-y-z product
  ``U(a, b, g) = exp(1j a R_3/2) exp(1j b R_2/2) exp(1j g R_3/2)``,
  under which the right-invariant coframe returned by :func:`su2_coframe`
  satisfies ``dU U^-1 = 1j * sum_j (R_j / 2) theta_j``.  The factor 1/2 is
  exposed as :data:`EULER_GENERATOR_SCALE`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import fock
from .errors import SpecError, require_integer
from .hilbert import is_hermitian

# Coframe components pair with generators/2 in the z-y-z Euler product.
EULER_GENERATOR_SCALE = 0.5

EULER = "euler"
EXPONENTIAL = "exponential"

RIGHT_INVARIANT = "right"
LEFT_INVARIANT = "left"


@dataclass(frozen=True)
class GroupPoint:
    """Chart coordinates of a group element.

    Euler angles cover the group for ``alpha in [0, 4 pi)``,
    ``beta in [0, pi]``, ``gamma in [0, 2 pi)``; only finiteness is
    enforced, the covering convention is documentation.
    """

    coords: np.ndarray
    chart: str = EXPONENTIAL

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).copy()
        if coords.ndim != 1 or not np.all(np.isfinite(coords)):
            raise ValueError("group point coordinates must be a finite 1-D array")
        if self.chart not in (EULER, EXPONENTIAL):
            raise SpecError(f"unknown chart {self.chart!r}")
        if self.chart == EULER and coords.size != 3:
            raise SpecError("Euler chart needs exactly three angles")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


def euler_point(alpha: float, beta: float, gamma: float) -> GroupPoint:
    return GroupPoint(np.array([alpha, beta, gamma]), chart=EULER)


def exponential_point(x) -> GroupPoint:
    return GroupPoint(np.asarray(x, dtype=float), chart=EXPONENTIAL)


@dataclass(frozen=True)
class Coframe:
    """Invariant one-form components at one chart point.

    ``theta[j, a]`` is the component of the j-th invariant one-form against
    the coordinate differential ``dx^a``.  ``frame`` records whether the
    forms are right or left invariant.
    """

    theta: np.ndarray
    point: np.ndarray
    frame: str = RIGHT_INVARIANT

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        point = np.asarray(self.point, dtype=float)
        if theta.ndim != 2 or not np.all(np.isfinite(theta)):
            raise ValueError("coframe components must be a finite 2-D array")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "point", point)

    def rescaled(self, factor: float) -> "Coframe":
        return Coframe(self.theta * factor, self.point, self.frame)


@dataclass(frozen=True)
class LieAlgebraRep:
    """Hermitian generators with structure constants and optional multiplier.

    Parameters
    ----------
    generators : array (n, d, d)
        Hermitian matrices ``R_j``.
    structure_constants : array (n, n, n)
        ``c[j, k, r]`` with ``[R_j, R_k] = 1j c[j,k,r] R_r + 1j omega[j,k] I``.
    multiplier_form : array (n, n) or None
        Antisymmetric central-extension two-form; ``None`` means zero.
    closure_mask : bool array (d,) or None
        If given, the closure identity is verified on the basis states it
        selects only (used by truncated realisations whose commutators are
        corrupted at the truncation boundary).
    validate_closure : bool
        Allow deliberately inconsistent data (negative controls) through.
    """

    generators: np.ndarray
    structure_constants: np.ndarray
    multiplier_form: np.ndarray | None = None
    closure_mask: np.ndarray | None = field(default=None, repr=False)
    validate_closure: bool = field(default=True, repr=False)
    atol: float = 1e-10

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
            raise ValueError("generators must be a stack of square matrices")
        n, d = gens.shape[0], gens.shape[1]
        tol = self.atol * d
        for j in range(n):
            if not is_hermitian(gens[j], atol=tol):
                raise ValueError(f"generator {j} is not Hermitian within {tol:g}")
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape {(n, n, n)}")
        if float(np.abs(c + np.swapaxes(c, 0, 1)).max()) > tol:
            raise ValueError("structure constants must be antisymmetric in (j, k)")
        omega = self.multiplier_form
        if omega is not None:
            omega = np.asarray(omega, dtype=float)
            if omega.shape != (n, n):
                raise ValueError(f"multiplier form must have shape {(n, n)}")
            if float(np.abs(omega + omega.T).max()) > tol:
                raise ValueError("multiplier form must be antisymmetric")
        gens = gens.copy()
        gens.setflags(write=False)
        c = c.copy()
        c.setflags(write=False)
        if omega is not None:
            omega = omega.copy()
            omega.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "multiplier_form", omega)
        if self.validate_closure:
            residual = self.closure_residual(self.closure_mask)
            if residual > tol:
                raise ValueError(
                    f"commutator closure fails: residual {residual:.3e} > {tol:g}"
                )

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def omega(self) -> np.ndarray:
        """Multiplier two-form, zero matrix when absent."""
        n = self.n_generators
        return np.zeros((n, n)) if self.multiplier_form is None else self.multiplier_form

    def closure_residual(self, mask: np.ndarray | None = None) -> float:
        """Max-norm defect of the commutator identity, on the ``mask`` block if given."""
        gens = self.generators
        n, d = self.n_generators, self.dim
        eye = np.eye(d)
        omega = self.omega()
        block = slice(None) if mask is None else np.ix_(mask, mask)
        worst = 0.0
        for j in range(n):
            for k in range(j + 1, n):
                lhs = gens[j] @ gens[k] - gens[k] @ gens[j]
                rhs = 1j * np.tensordot(self.structure_constants[j, k], gens, axes=1)
                rhs = rhs + 1j * omega[j, k] * eye
                worst = max(worst, float(np.abs((lhs - rhs)[block]).max()))
        return worst


def angular_momentum(s: float) -> list[np.ndarray]:
    """Standard spin-``s`` matrices ``[J_1, J_2, J_3]`` in the basis with
    magnetic number descending from ``+s`` to ``-s``."""
    two_s = round(2 * s)
    if abs(2 * s - two_s) > 1e-12 or two_s < 1:
        raise SpecError(f"spin must be a positive half-integer, got {s!r}")
    d = two_s + 1
    m = s - np.arange(d)
    j3 = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        jp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    j1 = (jp + jp.conj().T) / 2
    j2 = (jp - jp.conj().T) / 2j
    return [j1, j2, j3]


def _epsilon() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for (j, k, r), sign in (
        ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
        ((1, 0, 2), -1.0), ((2, 1, 0), -1.0), ((0, 2, 1), -1.0),
    ):
        eps[j, k, r] = sign
    return eps


def su2_spin_rep(s: float) -> LieAlgebraRep:
    """Spin-``s`` representation with generators ``2 J`` (Pauli at s = 1/2)."""
    js = angular_momentum(s)
    gens = np.array([2.0 * jm for jm in js])
    return LieAlgebraRep(gens, 2.0 * _epsilon())


def heisenberg_rep(n_modes: int, cutoff: int) -> LieAlgebraRep:
    """Position/momentum generators ``(Q^1..Q^n, P^1..P^n)`` on truncated
    Fock space, with zero structure constants and the standard symplectic
    multiplier form.  Closure is verified away from the truncation boundary.

    The generators are dense ``cutoff**n_modes``-sized matrices, so a space
    of more than :data:`qpt.fock.MAX_DENSE_STATES` states (1024) is refused
    with a :class:`SpecError` before any allocation.  Weyl systems
    (:mod:`qpt.weyl`) use this only at one mode; the dense multi-mode rep
    serves the ``heisenberg`` builtin of :func:`rep_from_spec` and the tests.
    """
    gens = fock.position_momentum(n_modes, cutoff)  # checks the size first
    n = 2 * n_modes
    return LieAlgebraRep(
        gens,
        np.zeros((n, n, n)),
        multiplier_form=fock.symplectic_form(n_modes),
        closure_mask=fock.low_fock_mask(n_modes, cutoff),
    )


def rep_from_spec(spec: dict, path: str = "$.rep") -> LieAlgebraRep:
    """Build a representation from its JSON description found at ``path``.

    Accepted forms: ``{"builtin": "su2", "spin": s}``,
    ``{"builtin": "heisenberg", "modes": n, "cutoff": N}`` with integer
    ``n`` and ``N`` or explicit
    ``{"generators": [...], "structure_constants": [...],
    "multiplier_form": [...]}`` with complex entries as ``[re, im]`` pairs.
    """
    if not isinstance(spec, dict):
        raise SpecError("representation spec must be an object")
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "su2":
            if "spin" not in spec:
                raise SpecError("su2 spec requires a 'spin' field")
            spin = spec["spin"]
            if not isinstance(spin, (int, float)) or isinstance(spin, bool):
                raise SpecError(f"at {path}.spin: expected a number, got {spin!r}")
            return su2_spin_rep(float(spin))
        if name == "heisenberg":
            modes = require_integer(spec.get("modes", 1), f"{path}.modes")
            cutoff = require_integer(spec.get("cutoff", 16), f"{path}.cutoff")
            return heisenberg_rep(modes, cutoff)
        raise SpecError(f"unknown builtin representation {name!r}")
    if "generators" not in spec or "structure_constants" not in spec:
        raise SpecError("explicit rep spec needs 'generators' and 'structure_constants'")
    gens = np.array([_complex_matrix(g) for g in spec["generators"]])
    c = np.asarray(spec["structure_constants"], dtype=float)
    omega = spec.get("multiplier_form")
    omega = None if omega is None else np.asarray(omega, dtype=float)
    try:
        return LieAlgebraRep(gens, c, multiplier_form=omega)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _complex_matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SpecError("complex matrix entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def euler_coframes(angles, frame: str = RIGHT_INVARIANT) -> np.ndarray:
    """Invariant coframe components of the z-y-z Euler chart.

    ``angles`` has shape ``(..., 3)`` holding ``(alpha, beta, gamma)``; the
    result has shape ``(..., 3, 3)`` with rows the components of
    ``theta_1..theta_3`` against ``(d alpha, d beta, d gamma)``:

    * right-invariant: ``theta_1 = sin(a) db - sin(b) cos(a) dg``,
      ``theta_2 = cos(a) db + sin(b) sin(a) dg``,
      ``theta_3 = da + cos(b) dg``;
    * left-invariant: the same family with the roles of ``alpha`` and
      ``gamma`` exchanged (components listed below).

    The determinant equals ``sin(beta)`` for both frames, vanishing only at
    the chart-degenerate angles ``beta = 0, pi``.
    """
    angles = np.asarray(angles, dtype=float)
    a, b, g = angles[..., 0], angles[..., 1], angles[..., 2]
    theta = np.zeros(angles.shape[:-1] + (3, 3))
    if frame == RIGHT_INVARIANT:
        theta[..., 0, 1], theta[..., 0, 2] = np.sin(a), -np.sin(b) * np.cos(a)
        theta[..., 1, 1], theta[..., 1, 2] = np.cos(a), np.sin(b) * np.sin(a)
        theta[..., 2, 0], theta[..., 2, 2] = 1.0, np.cos(b)
    elif frame == LEFT_INVARIANT:
        theta[..., 0, 0], theta[..., 0, 1] = np.sin(b) * np.cos(g), -np.sin(g)
        theta[..., 1, 0], theta[..., 1, 1] = np.sin(b) * np.sin(g), np.cos(g)
        theta[..., 2, 0], theta[..., 2, 2] = np.cos(b), 1.0
    else:
        raise SpecError(f"unknown frame {frame!r}")
    return theta


def su2_coframe(point: GroupPoint, frame: str = RIGHT_INVARIANT) -> Coframe:
    """Invariant coframe of the z-y-z Euler chart at ``point``: the
    single-point case of :func:`euler_coframes`."""
    if point.chart != EULER:
        raise SpecError("su2_coframe requires Euler coordinates")
    return Coframe(euler_coframes(point.coords, frame), point.coords, frame)


def group_element(rep: LieAlgebraRep, point: GroupPoint) -> np.ndarray:
    """Unitary representative of a chart point.

    Exponential coordinates give ``expm(1j sum_j x_j R_j)``; Euler
    coordinates give the z-y-z product with half generators.
    """
    gens = rep.generators
    if point.chart == EXPONENTIAL:
        if point.coords.size != rep.n_generators:
            raise ValueError(
                f"need {rep.n_generators} exponential coordinates, got {point.coords.size}"
            )
        u = expm(1j * np.tensordot(point.coords, gens, axes=1))
    else:
        if rep.n_generators != 3:
            raise SpecError("Euler chart requires a three-generator representation")
        a, b, g = point.coords
        u = (
            expm(1j * a * gens[2] / 2)
            @ expm(1j * b * gens[1] / 2)
            @ expm(1j * g * gens[2] / 2)
        )
    if not np.all(np.isfinite(u)):
        raise RuntimeError("matrix exponential did not converge")
    return u


def adjoint_matrix(
    rep: LieAlgebraRep, point: GroupPoint, return_shift: bool = False
):
    """Matrix of the adjoint action on the generator basis.

    Column ``j`` holds the expansion ``U R_j U^dag = sum_k A[k, j] R_k``
    (plus ``shift[j] * I`` when a multiplier form makes the identity enter).
    With this indexing ``A(g h) = A(g) A(h)`` and the covariance matrix of a
    displaced fiducial transforms as ``A T A^T``.
    """
    gens = rep.generators
    n, d = rep.n_generators, rep.dim
    u = group_element(rep, point)
    basis = [gens[k].reshape(-1) for k in range(n)]
    use_identity = rep.multiplier_form is not None
    if use_identity:
        basis.append(np.eye(d, dtype=complex).reshape(-1))
    bmat = np.column_stack(basis)
    rank = np.linalg.matrix_rank(bmat, tol=1e-12 * d)
    if rank < len(basis):
        raise ValueError("generators are not linearly independent; cannot solve for the adjoint")
    a = np.zeros((n, n))
    shift = np.zeros(n)
    for j in range(n):
        target = (u @ gens[j] @ u.conj().T).reshape(-1)
        coef, *_ = np.linalg.lstsq(bmat, target, rcond=None)
        if float(np.abs(coef.imag).max()) > 1e-8:
            raise ValueError("adjoint coefficients are not real; inconsistent representation")
        a[:, j] = coef[:n].real
        if use_identity:
            shift[j] = coef[n].real
    return (a, shift) if return_shift else a


def _coframe_for_rep(rep: LieAlgebraRep, point: GroupPoint) -> np.ndarray:
    """Coframe components dual to the representation's own generators."""
    if point.chart == EULER:
        return su2_coframe(point).theta * EULER_GENERATOR_SCALE
    # Exponential chart: exact invariant coframe is coordinate-valued only
    # for abelian algebras.
    if float(np.abs(rep.structure_constants).max()) > 1e-12:
        raise SpecError(
            "exponential-chart coframe is only available for abelian representations"
        )
    if point.coords.size != rep.n_generators:
        raise ValueError("coordinate count must match the number of generators")
    return np.eye(rep.n_generators)


def maurer_cartan_residual(
    rep: LieAlgebraRep, point: GroupPoint, step: float = 1e-5
) -> float:
    """Defect of ``d theta_r + (1/2) c[j,k,r] theta_j ^ theta_k = 0``.

    The exterior derivative is taken by central finite differences of the
    coframe components; wedge products carry no 1/2
    (``a ^ b = a x b - b x a``).  The coframe is the one dual to the
    representation's generators, so the identity closes with the stored
    structure constants.  Chart-degenerate points are flagged with a warning
    but still evaluated.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if point.chart == EULER and abs(np.sin(point.coords[1])) < 1e-8:
        warnings.warn("chart-degenerate point (sin(beta) ~ 0); residual may be meaningless")
    coords = point.coords
    m = coords.size
    n = rep.n_generators
    theta = _coframe_for_rep(rep, point)

    def theta_at(x):
        return _coframe_for_rep(rep, GroupPoint(x, chart=point.chart))

    grad = np.zeros((m, n, m))  # grad[a, r, b] = d theta[r, b] / d x_a
    for a in range(m):
        dx = np.zeros(m)
        dx[a] = step
        grad[a] = (theta_at(coords + dx) - theta_at(coords - dx)) / (2 * step)

    c = rep.structure_constants
    worst = 0.0
    for r in range(n):
        # d theta_r on the coordinate bivector (a, b), plus the wedge term.
        exterior = grad[:, r, :] - grad[:, r, :].T
        wedge = theta.T @ c[:, :, r] @ theta  # sum_jk c[j,k,r] theta_ja theta_kb
        worst = max(worst, float(np.abs(exterior + wedge).max()))
    return worst

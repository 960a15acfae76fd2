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

from . import fock
from .errors import SpecError, require_array, require_integer, require_number, require_object
from .hilbert import PROPERTY_ATOL

# Coframe components pair with generators/2 in the z-y-z Euler product.
EULER_GENERATOR_SCALE = 0.5

EULER = "euler"
EXPONENTIAL = "exponential"

RIGHT_INVARIANT = "right"
LEFT_INVARIANT = "left"


@dataclass(frozen=True)
class GroupPoint:
    """Chart coordinates of a group element, or of a stack of them.

    ``coords`` has shape ``(m,)`` for one point or ``(P, m)`` for a stack;
    the functions that take a point return one value or a stack to match.
    Euler angles cover the group for ``alpha in [0, 4 pi)``,
    ``beta in [0, pi]``, ``gamma in [0, 2 pi)``; only finiteness is
    enforced, the covering convention is documentation.
    """

    coords: np.ndarray
    chart: str = EXPONENTIAL

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).copy()
        if coords.ndim not in (1, 2) or not np.all(np.isfinite(coords)):
            raise ValueError("group point coordinates must be a finite (m,) or (P, m) array")
        if self.chart not in (EULER, EXPONENTIAL):
            raise SpecError(f"unknown chart {self.chart!r}")
        if self.chart == EULER and coords.shape[-1] != 3:
            raise SpecError("Euler chart needs exactly three angles")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


def euler_point(alpha, beta, gamma) -> GroupPoint:
    """Euler chart point; arrays of angles of one shape ``(P,)`` give a stack."""
    return GroupPoint(np.stack([alpha, beta, gamma], axis=-1), chart=EULER)


def exponential_point(x) -> GroupPoint:
    return GroupPoint(np.asarray(x, dtype=float), chart=EXPONENTIAL)


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
        Allow deliberately inconsistent data (negative controls) through;
        ``closure`` keeps the masked closure residual either way.

    Construction reads the generators' nonzeros once.  ``hermiticity`` is
    the largest ``|a_ij - conj(a_ji)|`` over them, equal to
    :func:`qpt.hilbert.hermiticity_defect`.  ``closure`` forms every
    commutator from the nonzeros when each pair ``(j, k)`` needs at most
    ``d**2`` scalar products, counted as ``sum_m colnnz(R_j)[m] rownnz(R_k)[m]``
    plus the mirrored term, which holds for banded generators such as the
    Fock ladders and the spin ``J+-``.  Otherwise it is the dense
    :meth:`closure_residual` on ``closure_mask``.
    """

    generators: np.ndarray
    structure_constants: np.ndarray
    multiplier_form: np.ndarray | None = None
    closure_mask: np.ndarray | None = field(default=None, repr=False)
    validate_closure: bool = field(default=True, repr=False)
    closure: float = field(init=False, repr=False, compare=False)
    hermiticity: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
            raise ValueError("generators must be a stack of square matrices")
        if not np.all(np.isfinite(gens)):
            raise ValueError("generators have non-finite entries")
        n, d = gens.shape[0], gens.shape[1]
        tol = PROPERTY_ATOL * d
        which, rows, cols = np.nonzero(gens)  # row-major within each generator
        vals = gens[which, rows, cols]
        # Every nonzero position, or its mirror, is visited, so this is the
        # dense defect |a - a^dag| exactly.
        defect = np.abs(vals - gens[which, cols, rows].conj())
        bounds = np.searchsorted(which, np.arange(n + 1))
        parts = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        herm = np.array([defect[part].max(initial=0.0) for part in parts])
        object.__setattr__(self, "hermiticity", float(herm.max(initial=0.0)))
        bad = np.flatnonzero(herm > tol)
        if bad.size:
            raise ValueError(f"generator {bad[0]} is not Hermitian within {tol:g}")
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
        for name, value in (("generators", gens), ("structure_constants", c), ("multiplier_form", omega)):
            if value is not None:
                value = _frozen(value, getattr(self, name))
            object.__setattr__(self, name, value)
        row_nnz, col_nnz = (np.bincount(which * d + at, minlength=n * d).reshape(n, d)
                            for at in (rows, cols))
        products = col_nnz @ row_nnz.T  # [j, k]: scalar products of R_j R_k
        if np.triu(products + products.T, 1).max(initial=0) <= d * d:
            entries = [(rows[part], cols[part], vals[part]) for part in parts]
            closure = _closure_from_nonzeros(entries, row_nnz, c, self.omega(), self.closure_mask)
        else:
            closure = self.closure_residual(self.closure_mask)
        object.__setattr__(self, "closure", closure)
        if self.validate_closure and self.closure > tol:
            raise ValueError(f"commutator closure fails: residual {self.closure:.3e} > {tol:g}")

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
        """Max-norm defect of the commutator identity, on the ``mask`` block if
        given, from dense products: the form ``closure`` falls back to."""
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


def _frozen(value: np.ndarray, given) -> np.ndarray:
    """``value``, the array made of the argument ``given``, made read-only.
    It is copied unless no caller can write to its memory: a fresh
    conversion, or ``given`` itself when that is a read-only array owning
    its data, such as the stack :func:`heisenberg_rep` builds and hands over."""
    private = value.base is None and (value is not given or not value.flags.writeable)
    value = value if private else value.copy()
    value.setflags(write=False)
    return value


def _product_entries(a, b, b_row_nnz):
    """``(row, col, value)`` terms of the product ``A B`` from the nonzeros of
    each, ``b`` sorted by row with ``b_row_nnz`` per row, one term per pair
    ``a_im b_mj``; duplicates are left for the caller to sum."""
    a_rows, a_cols, a_vals = a
    _, b_cols, b_vals = b
    first, count = (np.cumsum(b_row_nnz) - b_row_nnz)[a_cols], b_row_nnz[a_cols]
    left = np.repeat(np.arange(a_cols.size), count)
    right = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    return a_rows[left], b_cols[right], a_vals[left] * b_vals[right]


def _closure_from_nonzeros(entries, row_nnz, c, omega, mask) -> float:
    """:meth:`LieAlgebraRep.closure_residual` on ``mask`` from the generators'
    row-major ``(rows, cols, values)`` nonzeros and their counts per row:
    each defect ``R_j R_k - R_k R_j - 1j c_jk^r R_r - 1j omega_jk I`` is a
    list of terms, and ``np.bincount`` sums those that share a position on
    the mask block."""
    d = row_nnz.shape[1]
    inside = np.ones(d, dtype=bool) if mask is None else np.asarray(mask)
    diagonal = np.arange(d)
    worst = 0.0
    for j in range(len(entries)):
        for k in range(j + 1, len(entries)):
            r_jk, c_jk, v_jk = _product_entries(entries[j], entries[k], row_nnz[k])
            r_kj, c_kj, v_kj = _product_entries(entries[k], entries[j], row_nnz[j])
            terms = [(r_jk, c_jk, v_jk), (r_kj, c_kj, -v_kj)]
            for q in np.flatnonzero(c[j, k]):
                r_q, c_q, v_q = entries[q]
                terms.append((r_q, c_q, -1j * c[j, k, q] * v_q))
            if omega[j, k]:
                terms.append((diagonal, diagonal, np.full(d, -1j * omega[j, k])))
            rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
            keep = inside[rows] & inside[cols]
            key = rows[keep] * d + cols[keep]
            re, im = (np.bincount(key, part[keep])[key] for part in (vals.real, vals.imag))
            total = np.hypot(re, im)
            worst = max(worst, float(total.max(initial=0.0)))
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
    multiplier form.  Closure is verified away from the truncation boundary,
    from the generators' nonzeros: the ladders are banded, so each
    commutator needs far fewer than ``d**2`` scalar products and no dense
    ``d**3`` product is formed (the rule of :class:`LieAlgebraRep`).

    The generators are dense ``cutoff**n_modes``-sized matrices, so a space
    of more than :data:`qpt.fock.MAX_DENSE_STATES` states (1024) is refused
    with a :class:`SpecError` before any allocation.  Weyl systems
    (:mod:`qpt.weyl`) use this only at one mode; the dense multi-mode rep
    serves the ``heisenberg`` builtin of :func:`rep_from_spec` and the tests.
    """
    gens = fock.position_momentum(n_modes, cutoff)  # checks the size first
    gens.setflags(write=False)  # handed over: the rep keeps it without a copy
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
    A spin whose dimension ``2s + 1`` exceeds :data:`qpt.fock.MAX_DENSE_STATES`
    is refused before any matrix is allocated.
    """
    spec = require_object(spec, path)
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "su2":
            spin = require_number(spec.get("spin"), f"{path}.spin")
            if 2 * spin + 1 > fock.MAX_DENSE_STATES:  # before angular_momentum allocates
                raise SpecError(f"at {path}.spin: dimension 2s+1 = {2 * spin + 1:g} exceeds "
                                f"the budget of {fock.MAX_DENSE_STATES} states")
            try:
                return su2_spin_rep(spin)
            except SpecError as exc:
                raise SpecError(f"at {path}.spin: {exc}") from exc
        if name == "heisenberg":
            modes = require_integer(spec.get("modes", 1), f"{path}.modes")
            cutoff = require_integer(spec.get("cutoff", 16), f"{path}.cutoff")
            # The size check of heisenberg_rep, made first to name the spec paths.
            fock.check_size(modes, cutoff, fock.MAX_DENSE_STATES, "dense position/momentum "
                            "operators", (f"{path}.modes", f"{path}.cutoff"))
            return heisenberg_rep(modes, cutoff)
        raise SpecError(f"at {path}.builtin: unknown builtin representation {name!r}")
    gens = require_array(spec.get("generators"), f"{path}.generators", 3, pairs=True)
    c = require_array(spec.get("structure_constants"), f"{path}.structure_constants", 3)
    omega = spec.get("multiplier_form")
    omega = None if omega is None else require_array(omega, f"{path}.multiplier_form", 2)
    try:
        return LieAlgebraRep(gens, c, multiplier_form=omega)
    except ValueError as exc:
        raise SpecError(f"at {path}: {exc}") from exc


def grid_points(*axes) -> np.ndarray:
    """All points of the product of 1-D ``axes`` in row-major order (first
    axis slowest), shape ``(P, len(axes))``."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


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


def su2_coframe(point: GroupPoint, frame: str = RIGHT_INVARIANT) -> np.ndarray:
    """Invariant coframe components of the z-y-z Euler chart at ``point``,
    ``(3, 3)`` for one point or ``(P, 3, 3)`` for a stack: the components
    of :func:`euler_coframes`, ``theta[..., j, a]`` pairing the j-th
    invariant one-form with ``dx^a``."""
    if point.chart != EULER:
        raise SpecError("su2_coframe requires Euler coordinates")
    return euler_coframes(point.coords, frame)


def unitary_exponential(h, t) -> np.ndarray:
    """``exp(1j t h)`` for a Hermitian ``h`` of shape ``(..., d, d)`` and real
    ``t`` broadcast over the stack axes, as ``V diag(exp(1j t l)) V^dag``
    from one eigendecomposition ``h = V diag(l) V^dag``."""
    eigvals, eigvecs = np.linalg.eigh(h)
    phases = np.exp(1j * np.asarray(t, dtype=float)[..., None] * eigvals)
    return (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)


def euler_elements(rep: LieAlgebraRep, angles) -> np.ndarray:
    """Unitaries of the z-y-z Euler product at a stack of angles.

    ``angles`` has shape ``(..., 3)`` holding ``(alpha, beta, gamma)``; the
    result has shape ``(..., d, d)``.  Each factor ``exp(1j t R/2)`` is one
    :func:`unitary_exponential` of ``R_3`` or ``R_2`` over the whole stack.
    """
    if rep.n_generators != 3:
        raise SpecError("Euler chart requires a three-generator representation")
    a, b, g = np.moveaxis(np.asarray(angles, dtype=float) * EULER_GENERATOR_SCALE, -1, 0)
    r2, r3 = rep.generators[1:]
    return unitary_exponential(r3, a) @ unitary_exponential(r2, b) @ unitary_exponential(r3, g)


def group_element(rep: LieAlgebraRep, point: GroupPoint) -> np.ndarray:
    """Unitary representative of a chart point, ``(d, d)``, or of a stack,
    ``(P, d, d)``.

    Exponential coordinates give ``exp(1j sum_j x_j R_j)``, one
    :func:`unitary_exponential` of the ``(P, d, d)`` stack of ``x . R``;
    Euler coordinates give the z-y-z product with half generators from
    :func:`euler_elements`, built from the same exponential.
    """
    if point.chart == EULER:
        return euler_elements(rep, point.coords)
    if point.coords.shape[-1] != rep.n_generators:
        raise ValueError(
            f"need {rep.n_generators} exponential coordinates, got {point.coords.shape[-1]}"
        )
    u = unitary_exponential(np.tensordot(point.coords, rep.generators, axes=1), 1.0)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("matrix exponential is not finite")
    return u


def adjoint_matrix(
    rep: LieAlgebraRep, point: GroupPoint, return_shift: bool = False
):
    """Matrix of the adjoint action on the generator basis, ``(n, n)`` at
    one point or ``(P, n, n)`` on a stack.

    Column ``j`` holds the expansion ``U R_j U^dag = sum_k A[k, j] R_k``
    (plus ``shift[j] * I`` when a multiplier form makes the identity enter).
    With this indexing ``A(g h) = A(g) A(h)`` and the covariance matrix of a
    displaced fiducial transforms as ``A T A^T``.  Every conjugated
    generator of every point is one column of a single least-squares solve
    against the fixed generator basis.
    """
    a, shift = _adjoint_action(rep, group_element(rep, point))
    return (a, shift) if return_shift else a


def _adjoint_action(rep: LieAlgebraRep, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`adjoint_matrix` and its identity shift at unitaries ``(..., d, d)``."""
    gens = rep.generators
    n, d = rep.n_generators, rep.dim
    use_identity = rep.multiplier_form is not None
    basis = np.concatenate([gens, np.eye(d)[None]]) if use_identity else gens
    bmat = basis.reshape(len(basis), d * d).T
    if np.linalg.matrix_rank(bmat, tol=1e-12 * d) < len(basis):
        raise ValueError("generators are not linearly independent; cannot solve for the adjoint")
    v = u[..., None, :, :]  # against the generator axis
    targets = (v @ gens @ v.conj().swapaxes(-1, -2)).reshape(-1, d * d)  # (P * n, d * d)
    coef, *_ = np.linalg.lstsq(bmat, targets.T, rcond=None)
    if float(np.abs(coef.imag).max()) > 1e-8:
        raise ValueError("adjoint coefficients are not real; inconsistent representation")
    coef = coef.real.reshape(len(basis), *u.shape[:-2], n)  # [k, ..., j]
    a = np.moveaxis(coef[:n], 0, -2)
    shift = coef[n] if use_identity else np.zeros(a.shape[:-2] + (n,))
    return a, shift


def _coframe_for_rep(rep: LieAlgebraRep, point: GroupPoint) -> np.ndarray:
    """Coframe components dual to the representation's own generators,
    ``(..., n, m)``."""
    if point.chart == EULER:
        return su2_coframe(point) * EULER_GENERATOR_SCALE
    # Exponential chart: exact invariant coframe is coordinate-valued only
    # for abelian algebras.
    if float(np.abs(rep.structure_constants).max()) > 1e-12:
        raise SpecError(
            "exponential-chart coframe is only available for abelian representations"
        )
    n = rep.n_generators
    if point.coords.shape[-1] != n:
        raise ValueError("coordinate count must match the number of generators")
    return np.broadcast_to(np.eye(n), point.coords.shape[:-1] + (n, n))


def maurer_cartan_residual(rep: LieAlgebraRep, point: GroupPoint, step: float = 1e-5):
    """Defect of ``d theta_r + (1/2) c[j,k,r] theta_j ^ theta_k = 0``, a
    float at one point or a ``(P,)`` array on a stack.

    The exterior derivative is taken by central finite differences of the
    coframe components, one displaced stack per coordinate; wedge products
    carry no 1/2 (``a ^ b = a x b - b x a``).  The coframe is the one dual
    to the representation's generators, so the identity closes with the
    stored structure constants.  Chart-degenerate points are flagged with a
    warning but still evaluated.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    coords = point.coords
    if point.chart == EULER and np.any(np.abs(np.sin(coords[..., 1])) < 1e-8):
        warnings.warn("chart-degenerate point (sin(beta) ~ 0); residual may be meaningless")
    theta = _coframe_for_rep(rep, point)
    # grad[..., a, r, b] = d theta[r, b] / d x_a
    grad = np.stack(
        [
            (_coframe_for_rep(rep, GroupPoint(coords + dx, point.chart))
             - _coframe_for_rep(rep, GroupPoint(coords - dx, point.chart))) / (2 * step)
            for dx in step * np.eye(coords.shape[-1])
        ],
        axis=-3,
    )
    # d theta_r on the coordinate bivector (a, b), plus the wedge term
    # sum_jk c[j,k,r] theta_ja theta_kb.
    exterior = grad - np.swapaxes(grad, -3, -1)
    wedge = np.einsum("...ja,jkr,...kb->...arb", theta, rep.structure_constants, theta)
    return np.abs(exterior + wedge).max(axis=(-3, -2, -1))

"""Hermitian matrix representations of Lie algebras and group charts.

A chart is a set of functions on coordinate arrays ``(..., m)``: the Euler
chart (``m = 3``) has :func:`euler_elements` and :func:`euler_coframes`, the
exponential chart (``m = n``) :func:`exponential_elements`.  Each takes one
point or any stack of them and returns a value of matching leading shape.

A :class:`LieAlgebraRep` is applied to states from its generators' nonzero
entries alone; only the callers that need matrices read its stack.

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
  under which the right-invariant coframe returned by :func:`euler_coframes`
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

RIGHT_INVARIANT = "right"
LEFT_INVARIANT = "left"


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

    Every rep holds its nonzero entries ``(which, rows, cols, values)``,
    row-major within each generator, and :meth:`apply` works from them
    alone.  A rep given a stack also keeps it.  The builtins hand their
    entries over instead, and their stack is scattered from them only when a
    caller that needs matrices (:func:`euler_elements`,
    :func:`exponential_elements`, :func:`adjoint_matrix`,
    :func:`qpt.qgt.orbit_family`) first reads ``generators``, then kept
    read-only.  Finiteness is checked on the
    values (NaN and +-inf are nonzero).  ``hermiticity`` is the largest
    ``|a_ij - conj(a_ji)|`` over the nonzeros, each mirror looked up among
    them (zero where absent), equal to
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
        object.__setattr__(self, "generators", _frozen(gens, self.generators))
        which, rows, cols = np.nonzero(gens)  # row-major within each generator
        self._validate(gens.shape, (which, rows, cols, gens[which, rows, cols]))

    @classmethod
    def _from_entries(cls, shape, entries, structure_constants, multiplier_form=None,
                      closure_mask=None) -> "LieAlgebraRep":
        """The rep whose ``(n, d, d)`` generator stack is zero but at
        ``entries``, nonzero ``(which, rows, cols, values)`` row-major within
        each generator: validated on them and kept as them, with no stack."""
        rep = cls.__new__(cls)
        for name, value in (("structure_constants", structure_constants),
                            ("multiplier_form", multiplier_form), ("closure_mask", closure_mask),
                            ("validate_closure", True)):
            object.__setattr__(rep, name, value)
        rep._validate(shape, entries)
        return rep

    def __getattr__(self, name):
        # Reached only for an attribute not set: the stack of a rep built
        # from entries, before its first read.  It is scattered once and kept.
        if name != "generators" or "_entries" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gens = self._stack()
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        return gens

    def _validate(self, shape, entries):
        """Keep the ``entries`` of a stack of ``shape`` read-only, check and
        freeze the fields and set ``hermiticity`` and ``closure`` from them."""
        for part in entries:
            part.setflags(write=False)
        which, rows, cols, vals = entries
        if not np.isfinite(vals).all():  # NaN and +-inf are nonzero
            raise ValueError("generators have non-finite entries")
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_entries", entries)
        n, d = shape[0], shape[1]
        tol = PROPERTY_ATOL * d
        # Every nonzero position, or its mirror, is visited, so this is the
        # dense defect |a - a^dag| exactly.
        key = (which * d + rows) * d + cols  # ascending
        mirror = (which * d + cols) * d + rows
        hit = np.minimum(np.searchsorted(key, mirror), key.size - 1)
        defect = np.abs(vals - np.where(key[hit] == mirror, vals[hit], 0).conj())
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
        for name, value in (("structure_constants", c), ("multiplier_form", omega)):
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

    def apply(self, psi, weights=None) -> np.ndarray:
        """Tangent vectors ``R_j psi``, ``(..., n, d)``, of a state or stack of
        states ``psi`` of shape ``(..., d)``; with ``weights`` ``u`` of shape
        ``(n,)`` and one state ``psi``, the vector ``(u . R) psi``, ``(d,)``.

        The nonzeros are summed row by row, in their order, and then the
        weighted tangents; the stack is never read.
        """
        psi = np.asarray(psi)
        which, rows, cols, vals = self._entries
        n, d = self._shape[0], self._shape[1]
        slot = which * d + rows
        starts = np.flatnonzero(np.diff(slot, prepend=-1))
        out = np.zeros(psi.shape[:-1] + (n * d,), dtype=np.result_type(vals, psi))
        out[..., slot[starts]] = np.add.reduceat(vals * psi[..., cols], starts, axis=-1)
        out = out.reshape(psi.shape[:-1] + (n, d))
        return out if weights is None else np.asarray(weights) @ out

    def expectations(self, psi) -> np.ndarray:
        """``<psi|R_j|psi>``, ``(n,)``, at one state ``psi`` ``(d,)``, from
        :meth:`apply`."""
        return self.apply(psi) @ np.conj(psi)

    @property
    def n_generators(self) -> int:
        return self._shape[0]

    @property
    def dim(self) -> int:
        return self._shape[1]

    def omega(self) -> np.ndarray:
        """Multiplier two-form, zero matrix when absent."""
        n = self.n_generators
        return np.zeros((n, n)) if self.multiplier_form is None else self.multiplier_form

    def _stack(self) -> np.ndarray:
        """The stack held, else one scattered from the entries, not kept."""
        if "generators" in self.__dict__:
            return self.generators
        which, rows, cols, vals = self._entries
        gens = np.zeros(self._shape, dtype=complex)
        gens[which, rows, cols] = vals
        return gens

    def closure_residual(self, mask: np.ndarray | None = None) -> float:
        """Max-norm defect of the commutator identity, on the ``mask`` block if
        given, from dense products: the form ``closure`` falls back to.  A
        rep holding no stack scatters one for the call and does not keep it."""
        gens = self._stack()
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
    It is copied unless it is a fresh conversion, whose memory no caller
    holds."""
    value = value if value is not given and value.base is None else value.copy()
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
    the mask block, in the order of the list."""
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
            # One slot per distinct position, not one bin per matrix entry.
            _, slot = np.unique(rows[keep] * d + cols[keep], return_inverse=True)
            re, im = (np.bincount(slot, part[keep])[slot] for part in (vals.real, vals.imag))
            total = np.hypot(re, im)
            worst = max(worst, float(total.max(initial=0.0)))
    return worst


def angular_momentum(s: float) -> list[np.ndarray]:
    """Standard spin-``s`` matrices ``[J_1, J_2, J_3]`` in the basis with
    magnetic number descending from ``+s`` to ``-s``: half the generators of
    :func:`su2_spin_rep`."""
    return list(su2_spin_rep(s).generators / 2)


def su2_entries(s: float) -> tuple[np.ndarray, ...]:
    """Nonzero entries ``(which, rows, cols, values)``, row-major within each
    generator, of the spin-``s`` generators ``R = 2 J``, magnetic number
    descending from ``+s``: ``R_1 = J+ + J-``, ``R_2 = -1j (J+ - J-)`` and
    ``R_3 = 2 J_3``, whose zero at ``m = 0`` (integer spin) is not listed.
    ``O(d)`` memory; no matrix is formed."""
    two_s = round(2 * s)
    if abs(2 * s - two_s) > 1e-12 or two_s < 1:
        raise SpecError(f"spin must be a positive half-integer, got {s!r}")
    d = two_s + 1
    m = s - np.arange(d)
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))  # J+ at (k - 1, k)
    k = np.arange(1, d)
    rows, cols = np.concatenate([k - 1, k]), np.concatenate([k, k - 1])  # J+, then J-
    order = np.argsort(rows * d + cols)
    diagonal = np.flatnonzero(m)
    parts = np.zeros((2 * rows.size + diagonal.size, 2))  # [re, im] of each value
    parts[: rows.size, 0] = np.concatenate([ladder, ladder])[order]
    parts[rows.size : 2 * rows.size, 1] = np.concatenate([-ladder, ladder])[order]
    parts[2 * rows.size :, 0] = 2.0 * m[diagonal]
    which = np.repeat(np.arange(3), [rows.size, rows.size, diagonal.size])
    rows, cols = (np.concatenate([at[order], at[order], diagonal]) for at in (rows, cols))
    return which, rows, cols, parts.view(complex).ravel()


def su2_spin_rep(s: float) -> LieAlgebraRep:
    """Spin-``s`` representation with generators ``2 J`` (Pauli at s = 1/2),
    built from its :func:`su2_entries`; the ``(3, d, d)`` stack is scattered
    only when ``generators`` is first read."""
    entries = su2_entries(s)
    d = round(2 * s) + 1
    c = np.zeros((3, 3, 3))  # 2 eps_jkr
    for j, k, r in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[j, k, r], c[k, j, r] = 2.0, -2.0
    return LieAlgebraRep._from_entries((3, d, d), entries, c)


def heisenberg_rep(n_modes: int, cutoff: int) -> LieAlgebraRep:
    """Position/momentum generators ``(Q^1..Q^n, P^1..P^n)`` on truncated
    Fock space, with zero structure constants and the standard symplectic
    multiplier form, built from the ladders' nonzero entries
    (:func:`qpt.fock.ladder_entries`) as :func:`su2_spin_rep` is from its
    own.  Closure is verified from them, away from the truncation boundary.

    The dense ``cutoff**n_modes``-sized stack is scattered only when
    ``generators`` is first read; to bound it, a space of more than
    :data:`qpt.fock.MAX_DENSE_STATES` states (1024) is refused with a
    :class:`SpecError` before any allocation.  Weyl systems
    (:mod:`qpt.weyl`) use this only at one mode; the multi-mode rep serves
    the ``heisenberg`` builtin of :func:`rep_from_spec` and the tests.
    """
    entries = fock.ladder_entries(n_modes, cutoff)  # checks the size first
    n, d = 2 * n_modes, cutoff**n_modes
    return LieAlgebraRep._from_entries(
        (n, d, d),
        entries,
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
    "multiplier_form": [...]}`` with complex entries as ``[re, im]`` pairs
    and linearly independent generators.
    A spin whose dimension ``2s + 1`` exceeds :data:`qpt.fock.MAX_DENSE_STATES`
    is refused before any matrix is allocated.
    """
    spec = require_object(spec, path)
    if "builtin" in spec:
        name = spec["builtin"]
        if name == "su2":
            spin = require_number(spec.get("spin"), f"{path}.spin")
            if 2 * spin + 1 > fock.MAX_DENSE_STATES:  # before su2_entries allocates
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
        rep = LieAlgebraRep(gens, c, multiplier_form=omega)
    except ValueError as exc:
        raise SpecError(f"at {path}: {exc}") from exc
    if _linearly_dependent(rep.generators):  # the builtins are independent by construction
        raise SpecError(f"at {path}.generators: generators are not linearly independent")
    return rep


def grid_points(*axes) -> np.ndarray:
    """All points of the product of 1-D ``axes`` in row-major order (first
    axis slowest), shape ``(P, len(axes))``."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _coordinates(x, m: int) -> np.ndarray:
    """Chart coordinates ``x`` as a float array ``(..., m)``, refused with a
    ``ValueError`` unless its last axis holds ``m`` finite numbers."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != m:
        raise ValueError(f"need {m} chart coordinates on the last axis, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("chart coordinates must be finite")
    return x


def _linearly_dependent(matrices: np.ndarray) -> bool:
    """Whether a stack of ``k`` matrices ``(k, d, d)`` spans fewer than ``k``
    dimensions."""
    k, d = matrices.shape[0], matrices.shape[-1]
    return np.linalg.matrix_rank(matrices.reshape(k, d * d), tol=1e-12 * d) < k


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
    the chart-degenerate angles ``beta = 0, pi``.  Euler angles cover the
    group for ``alpha in [0, 4 pi)``, ``beta in [0, pi]``,
    ``gamma in [0, 2 pi)``; only finiteness is enforced.
    """
    angles = _coordinates(angles, 3)
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
    a, b, g = np.moveaxis(_coordinates(angles, 3) * EULER_GENERATOR_SCALE, -1, 0)
    r2, r3 = rep.generators[1:]
    return unitary_exponential(r3, a) @ unitary_exponential(r2, b) @ unitary_exponential(r3, g)


def exponential_elements(rep: LieAlgebraRep, x) -> np.ndarray:
    """Unitaries ``exp(1j sum_j x_j R_j)`` at exponential coordinates ``x``
    of shape ``(..., n)``, ``(..., d, d)``: one :func:`unitary_exponential`
    of the stack of ``x . R``."""
    x = _coordinates(x, rep.n_generators)
    u = unitary_exponential(np.tensordot(x, rep.generators, axes=1), 1.0)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("matrix exponential is not finite")
    return u


def adjoint_matrix(rep: LieAlgebraRep, u, return_shift: bool = False):
    """Matrix of the adjoint action on the generator basis at unitaries ``u``
    of shape ``(..., d, d)``, ``(..., n, n)``.

    Column ``j`` holds the expansion ``U R_j U^dag = sum_k A[k, j] R_k``
    (plus ``shift[j] * I`` when a multiplier form makes the identity enter).
    With this indexing ``A(g h) = A(g) A(h)`` and the covariance matrix of a
    displaced fiducial transforms as ``A T A^T``.  Every conjugated
    generator of every unitary is one column of a single least-squares
    solve against the fixed generator basis.
    """
    u = np.asarray(u)
    gens = rep.generators
    n, d = rep.n_generators, rep.dim
    use_identity = rep.multiplier_form is not None
    basis = np.concatenate([gens, np.eye(d)[None]]) if use_identity else gens
    if _linearly_dependent(basis):
        raise ValueError("generators are not linearly independent; cannot solve for the adjoint")
    v = u[..., None, :, :]  # against the generator axis
    targets = (v @ gens @ v.conj().swapaxes(-1, -2)).reshape(-1, d * d)  # (P * n, d * d)
    coef, *_ = np.linalg.lstsq(basis.reshape(len(basis), d * d).T, targets.T, rcond=None)
    if float(np.abs(coef.imag).max()) > 1e-8:
        raise ValueError("adjoint coefficients are not real; inconsistent representation")
    coef = coef.real.reshape(len(basis), *u.shape[:-2], n)  # [k, ..., j]
    a = np.moveaxis(coef[:n], 0, -2)
    shift = coef[n] if use_identity else np.zeros(a.shape[:-2] + (n,))
    return (a, shift) if return_shift else a


def maurer_cartan_residual(rep: LieAlgebraRep, angles, step: float = 1e-5):
    """Defect of ``d theta_r + (1/2) c[j,k,r] theta_j ^ theta_k = 0`` at Euler
    angles ``(..., 3)``, of shape ``(...)``.

    The exterior derivative is taken by central finite differences of the
    coframe components, one displaced stack per angle; wedge products
    carry no 1/2 (``a ^ b = a x b - b x a``).  The coframe is the
    right-invariant one times :data:`EULER_GENERATOR_SCALE`, dual to the
    representation's generators, so the identity closes with the stored
    structure constants.  Chart-degenerate points are flagged with a
    warning but still evaluated.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    angles = _coordinates(angles, 3)
    if np.any(np.abs(np.sin(angles[..., 1])) < 1e-8):
        warnings.warn("chart-degenerate point (sin(beta) ~ 0); residual may be meaningless")

    def coframe(x):
        return euler_coframes(x) * EULER_GENERATOR_SCALE

    theta = coframe(angles)
    # grad[..., a, r, b] = d theta[r, b] / d x_a
    grad = np.stack(
        [(coframe(angles + dx) - coframe(angles - dx)) / (2 * step) for dx in step * np.eye(3)],
        axis=-3,
    )
    # d theta_r on the coordinate bivector (a, b), plus the wedge term
    # sum_jk c[j,k,r] theta_ja theta_kb.
    exterior = grad - np.swapaxes(grad, -3, -1)
    wedge = np.einsum("...ja,jkr,...kb->...arb", theta, rep.structure_constants, theta)
    return np.abs(exterior + wedge).max(axis=(-3, -2, -1))

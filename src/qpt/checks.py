"""Named invariant checks used by the ``verify`` front end.

Each check returns a residual together with the tolerance it is held to, so
reports stay machine readable.  Randomised checks draw from a fixed seed,
through :func:`_samples` over the standard library's ``random.Random``, and
are therefore reproducible run to run.  :class:`CheckResult` and
:func:`conventions` live in :mod:`qpt.report`, which loads no embedding
module, and are re-exported here.  The checks that read spectral tensors
import :mod:`qpt.qgt` when they run, so the Weyl battery does not load it.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

import numpy as np

from . import fock
from . import weyl as weyl_mod
from .errors import NumericalRefusal
from .hilbert import PROPERTY_ATOL, hermitian_tensor, hermiticity_defect
from .liegroup import (
    LieAlgebraRep,
    adjoint_matrix,
    euler_coframes,
    exponential_elements,
    grid_points,
    maurer_cartan_residual,
)
from .pullback import (
    PullbackTensor,
    _as_tensor,
    covariance_matrix,
    degeneracy_directions,
    evaluate_at,
    first_moments,
    multiplier_consistency,
    split,
)
from .report import CheckResult, conventions  # conventions: re-exported

if TYPE_CHECKING:
    from .qgt import HamiltonianFamily


def _samples(seed: int, shape, low=None, high=None) -> np.ndarray:
    """A ``shape`` array of draws from ``random.Random(seed)``: uniform on
    ``[low, high)``, bounds broadcast against ``shape``, or standard normal
    without bounds.  The same seed gives the same array whatever the numpy
    version."""
    rng = random.Random(seed)
    count = math.prod(shape)
    if low is None:
        return np.reshape([rng.gauss(0.0, 1.0) for _ in range(count)], shape)
    unit = np.reshape([rng.random() for _ in range(count)], shape)
    return low + (np.asarray(high) - low) * unit


def equivariance_residual(
    rep: LieAlgebraRep, fiducial, n_samples: int = 20, seed: int = 0
) -> float:
    """Covariance of the displaced fiducial versus the adjoint-conjugated one.

    For every sampled group element ``g`` the identity
    ``T(U(g)|0>) = A(g) T(|0>) A(g)^T`` is evaluated in max norm.  One
    stack of unitaries ``U(g)`` serves both sides, so the samples are
    exponentiated once.  ``fiducial`` is a state or its linear
    :class:`PullbackTensor`.
    """
    base = _as_tensor(rep, fiducial)
    u = exponential_elements(rep, _samples(seed, (n_samples, rep.n_generators), -1.5, 1.5))
    a = adjoint_matrix(rep, u)
    displaced = covariance_matrix(rep, u @ base.fiducial).coefficients
    return float(np.abs(displaced - a @ base.coefficients @ a.swapaxes(-1, -2)).max())


def projective_scale_residual(
    rep: LieAlgebraRep, fiducial, projective: bool = True, seed: int = 0
) -> float:
    """Largest change of the tensor when each tangent vector ``R_j psi``
    gains a seeded complex multiple ``c_j psi`` of the state.

    That is a move along the scale and phase direction ``psi``, which the
    projective tensor does not see; the linear tensor
    (``projective=False``) does, which makes it the negative control.
    ``fiducial`` is a state or its :class:`PullbackTensor` of that kind.
    """
    t = _as_tensor(rep, fiducial, projective=projective)
    psi = t.fiducial
    c = _samples(seed, (rep.n_generators, 2)) @ [1.0, 1j]
    shifted = hermitian_tensor(psi, rep.apply(psi) + c[:, None] * psi, projective)
    return float(np.abs(shifted - t.coefficients).max())


def two_form_closedness_residual(
    tensor: PullbackTensor,
    grid_shape: tuple[int, int] = (20, 20),
    fd_step: float = 1e-4,
    alpha: float = 0.8,
) -> float:
    """Finite-difference exterior derivative of the coordinate two-form.

    Sweeps a ``(beta, gamma)`` grid at fixed ``alpha``, as one stack, and
    returns the largest cyclic-sum component of ``dW``.
    """

    def w_at(points):
        return evaluate_at(tensor, euler_coframes(points)).two_form

    betas = np.linspace(0.3, np.pi - 0.3, grid_shape[0])
    gammas = np.linspace(0.1, 2 * np.pi - 0.1, grid_shape[1])
    points = grid_points([alpha], betas, gammas)
    grad = [(w_at(points + dx) - w_at(points - dx)) / (2 * fd_step) for dx in fd_step * np.eye(3)]
    d_w = grad[0][:, 1, 2] - grad[1][:, 0, 2] + grad[2][:, 0, 1]
    return float(np.abs(d_w).max())


def group_checks(
    rep: LieAlgebraRep,
    fiducial,
    n_points: int = 20,
    fd_step: float = 1e-5,
    seed: int = 0,
) -> list[CheckResult]:
    """Invariant battery for a representation with a fiducial state.

    The linear and projective tensors are evaluated once and handed to
    every check that reads them.
    """
    tol_dim = PROPERTY_ATOL * rep.dim
    results = []

    results.append(CheckResult("generator-hermiticity", rep.hermiticity, tol_dim))
    results.append(CheckResult("closure", rep.closure, tol_dim))

    linear = covariance_matrix(rep, fiducial)
    projective = covariance_matrix(rep, fiducial, projective=True)
    for label, t in (("linear", linear), ("projective", projective)):
        defect = float(hermiticity_defect(t.coefficients))
        results.append(CheckResult(f"covariance-hermiticity-{label}", defect, 1e-12))
    metric, _ = split(projective)
    min_eig = float(np.linalg.eigvalsh(metric).min())
    results.append(CheckResult("projective-psd", max(0.0, -min_eig), 1e-10))
    results.append(CheckResult(
        "projective-scale-invariance", projective_scale_residual(rep, projective, seed=seed), 1e-10
    ))

    psi = projective.fiducial
    first = first_moments(rep, psi)
    worst_dir = 0.0
    for u in degeneracy_directions(rep, projective):
        worst_dir = max(worst_dir, float(np.linalg.norm(rep.apply(psi, u) - (u @ first) * psi)))
    results.append(CheckResult("degeneracy-direction-residual", worst_dir, 1e-6))

    results.append(
        CheckResult("multiplier-consistency", multiplier_consistency(rep, linear), 1e-10)
    )

    if rep.multiplier_form is None:
        results.append(
            CheckResult(
                "equivariance", equivariance_residual(rep, linear, seed=seed), 1e-8
            )
        )

    if rep.n_generators == 3 and rep.multiplier_form is None:
        angles = _samples(seed, (n_points, 3), [0.0, 0.15, 0.0], [2 * np.pi, np.pi - 0.15, 2 * np.pi])
        det_dev = float(np.abs(np.linalg.det(euler_coframes(angles)) - np.sin(angles[:, 1])).max())
        mc_dev = float(maurer_cartan_residual(rep, angles, step=fd_step).max())
        results.append(CheckResult("coframe-determinant", det_dev, 1e-12))
        results.append(CheckResult("maurer-cartan", mc_dev, 1e-8))
        results.append(
            CheckResult(
                "two-form-closedness",
                two_form_closedness_residual(linear),
                1e-6,
            )
        )
        from .qgt import orbit_consistency_check

        try:
            results.append(
                CheckResult("orbit-vs-spectral", orbit_consistency_check(rep, projective), 1e-8)
            )
        except NumericalRefusal:
            pass  # fiducial is not a coherent (extremal) state; check not applicable

    return results


def random_lagrangian_frames(modes: int, n_samples: int = 5, seed: int = 0):
    """Lagrangian frames obtained by unitary rotations of the Q-plane.

    The realified image of a complex unitary ``X + 1j Y`` is the orthogonal
    symplectic block matrix ``[[X, -Y], [Y, X]]``; it maps the position
    plane to a Lagrangian subspace.
    """
    frames = []
    for z in _samples(seed, (n_samples, modes, modes, 2)) @ [1.0, 1j]:
        q, _ = np.linalg.qr(z)
        big = np.block([[q.real, -q.imag], [q.imag, q.real]])
        frames.append([big[:, m] for m in range(modes)])
    return frames


# Weyl defects at or below this are rounding noise, not truncation error:
# two exact evaluations of one defect (dense Kronecker and mode-factorised
# products) differ by up to a few 1e-16 at 1 to 4 modes, so the monotone
# check compares defects only above it.
DEFECT_FLOOR = 1e-14
DEFECT_CUTOFFS = (8, 16, 32)


def defect_growth(defects) -> float:
    """Largest rise between consecutive defects, each first raised to
    :data:`DEFECT_FLOOR`; zero for a sequence that never grows above it."""
    clamped = np.maximum(np.asarray(defects, dtype=float), DEFECT_FLOOR)
    return float(max(0.0, np.diff(clamped).max()))


def check_defect_budget(modes: int, path: str | None = None) -> None:
    """Refuse a mode count whose Weyl system at the top of
    :data:`DEFECT_CUTOFFS` exceeds :data:`qpt.weyl.MAX_STATES`, naming the
    spec ``path`` of ``modes`` if given."""
    top = DEFECT_CUTOFFS[-1]
    fock.check_size(
        modes, top, weyl_mod.MAX_STATES, f"the cutoff-{top} defect check's Weyl system", (path, None)
    )


def weyl_checks(system: weyl_mod.WeylSystem, seed: int = 0) -> list[CheckResult]:
    """Invariant battery for a truncated Weyl system.

    The defect checks use systems at :data:`DEFECT_CUTOFFS` whatever the
    system's own cutoff; their size is checked first, so that a mode count
    whose cutoff-32 space exceeds :data:`qpt.weyl.MAX_STATES` is refused
    before any state is allocated.
    """
    modes = system.modes
    n = 2 * modes
    check_defect_budget(modes)
    defect_systems = [
        system if c == system.cutoff else weyl_mod.build_weyl(modes, c) for c in DEFECT_CUTOFFS
    ]
    results = []

    tensor = weyl_mod.gaussian_covariance(system)
    metric, form = split(tensor)
    results.append(
        CheckResult("re-part-half-identity", float(np.abs(metric - np.eye(n) / 2).max()), 1e-14)
    )
    results.append(
        CheckResult(
            "im-part-half-omega",
            float(np.abs(form - system.symplectic_form / 2).max()),
            1e-14,
        )
    )

    proj = weyl_mod.gaussian_covariance(system, projective=True)
    results.append(
        CheckResult(
            "projective-equals-linear",
            float(np.abs(proj.coefficients - tensor.coefficients).max()),
            1e-14,
        )
    )

    vac = system.vacuum()
    # products[j, k] = <0| R_j R_k |0>, from bra and ket sides separately
    bras = weyl_mod.generator_states(system, vac.conj(), transpose=True)
    products = bras @ weyl_mod.generator_states(system, vac).T
    comm_dev = float(np.abs(products - products.T - 1j * system.symplectic_form).max())
    results.append(CheckResult("vacuum-commutator", comm_dev, 1e-14))

    oracle = weyl_mod.gaussian_moments(modes)
    qq, pp = products[:modes, :modes], products[modes:, modes:]
    quad_dev = float(max(np.abs(qq - oracle).max(), np.abs(pp - oracle).max()))
    results.append(CheckResult("quadrature-vs-fock", quad_dev, 1e-10))

    lag_dev = 0.0
    for frame in random_lagrangian_frames(modes, seed=seed):
        restricted = weyl_mod.lagrangian_restriction(tensor, frame)
        lag_dev = max(lag_dev, float(np.abs(restricted.coefficients.imag).max()))
    results.append(CheckResult("lagrangian-restriction-im", lag_dev, 1e-14))

    pair = _samples(seed, (2, n), -1.0, 1.0)
    v1, v2 = pair / np.maximum(1.0, 2 * np.linalg.norm(pair, axis=1, keepdims=True))  # lengths <= 0.5
    defects = [weyl_mod.weyl_defect(s, v1, v2) for s in defect_systems]
    results.append(CheckResult("weyl-defect-monotone", defect_growth(defects), 0.0))
    results.append(CheckResult("weyl-defect-cutoff-32", defects[2], 1e-6))
    return results


def _relative_deviation(h, oracle) -> float:
    """Largest entry deviation of the ``(P, m, m)`` stack ``oracle`` from
    ``h``, each point's relative to ``max(1, |h|)`` there: a tensor of size
    1 or less is held to the absolute deviation, a larger one to its
    relative error."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    return float((np.abs(h - oracle).max(axis=(-2, -1)) / scale).max())


def qgt_checks(
    family: HamiltonianFamily,
    points,
    level: int | None = None,
    fd_step: float = 1e-5,
) -> list[CheckResult]:
    """Invariant battery for a Hamiltonian family over sample points.

    The spectral tensor and its finite-difference oracle are one stacked
    evaluation each.  The oracle's residual at each point is relative to
    the tensor's size there, where that exceeds 1
    (:func:`_relative_deviation`).
    """
    from .qgt import finite_difference_qgt, qgt_tensor

    spectral = qgt_tensor(family, points, a=level)
    herm_dev = float(hermiticity_defect(spectral.h).max())
    psd_dev = max(0.0, -float(np.linalg.eigvalsh(spectral.metric).min()))
    fd_dev = _relative_deviation(spectral.h, finite_difference_qgt(family, points, a=level, step=fd_step).h)
    return [
        CheckResult("qgt-hermiticity", herm_dev, 1e-12),
        CheckResult("qgt-metric-psd", psd_dev, 1e-10),
        CheckResult("qgt-spectral-vs-finite-difference", fd_dev, 1e-6),
    ]


def bloch_closed_form_checks(grid_shape: tuple[int, int] = (10, 10)) -> list[CheckResult]:
    """Ground-state tensor of the two-level sphere family versus closed form."""
    from .qgt import bloch_family, finite_difference_qgt, qgt_tensor

    family = bloch_family()
    thetas = np.linspace(0.15, np.pi - 0.15, grid_shape[0])
    phis = np.linspace(0.0, 2 * np.pi - 0.1, grid_shape[1])
    points = grid_points(thetas, phis)
    res = qgt_tensor(family, points, a=0)
    expected = np.zeros_like(res.metric)
    expected[:, 0, 0], expected[:, 1, 1] = 0.25, 0.25 * np.sin(points[:, 0]) ** 2
    metric_dev = float(np.abs(res.metric - expected).max())
    fd_dev = _relative_deviation(res.h, finite_difference_qgt(family, points, a=0, step=1e-5).h)
    return [
        CheckResult("bloch-metric-closed-form", metric_dev, 1e-8),
        CheckResult("bloch-spectral-vs-finite-difference", fd_dev, 1e-6),
    ]


def landau_zener_checks(delta: float = 1.0) -> list[CheckResult]:
    """Avoided-crossing curvature value, as its error relative to the closed
    form, and its gap scaling, both at the crossing x = 0."""
    h_full = _at_crossing(delta, "landau-zener-value")
    closed_form = 1.0 / (4.0 * delta**2)  # delta^2 / (4 (lam^2 + delta^2)^2) at lam = 0
    value_dev = abs(h_full - closed_form) / closed_form
    h_half = _at_crossing(delta / 2, "landau-zener-gap-scaling")
    scaling_dev = abs(h_half / h_full - 4.0)
    return [
        CheckResult("landau-zener-value", float(value_dev), 1e-10),
        CheckResult("landau-zener-gap-scaling", float(scaling_dev), 1e-8),
    ]


def _at_crossing(delta: float, check: str) -> complex:
    """``h`` of the ground level of ``landau_zener_family(delta)`` at x = 0.
    That point need not be on the command's grid, so a refusal names
    ``check`` and x = 0, not a grid index."""
    from .qgt import landau_zener_family, qgt_tensor

    try:
        return complex(qgt_tensor(landau_zener_family(delta), [0.0], a=0).h[0, 0])
    except NumericalRefusal as exc:
        reason = str(exc).replace(" at grid index 0, point [0.0]", "")  # the place within this one-point call
        raise NumericalRefusal(f"{check} check at x = 0, delta {delta!r}: {reason}") from exc

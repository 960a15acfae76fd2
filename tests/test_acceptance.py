"""Acceptance criteria, one test per criterion.

Every test evaluates its criterion at the stated tolerance and prints a
single pass/fail line (run pytest with ``-s`` to see them inline).
"""

import time

import numpy as np
import pytest

from qpt.checks import conventions, random_lagrangian_frames, two_form_closedness_residual
from qpt.liegroup import euler_coframes, exponential_elements, su2_spin_rep
from qpt.pullback import covariance_matrix, degeneracy_directions, evaluate_at
from qpt.qgt import (
    bloch_family,
    finite_difference_qgt,
    landau_zener_family,
    orbit_consistency_check,
    qgt_tensor,
)
from qpt.weyl import (
    build_weyl,
    defect_convergence,
    gaussian_covariance,
    gaussian_moment_oracle,
    lagrangian_restriction,
)
from qpt.liegroup import adjoint_matrix, maurer_cartan_residual

NORTH = np.array([1, 0], dtype=complex)


def report(num, name, residual, tol, note=""):
    status = "pass" if residual <= tol else "FAIL"
    print(f"criterion {num:>2} [{status}] {name}: residual {residual:.3e} <= {tol:.1e}{note}")
    assert residual <= tol, f"criterion {num} failed: {residual:.3e} > {tol:.1e}"


def random_euler_points(count, seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0, 2 * np.pi, count)
    betas = rng.uniform(0.05, np.pi - 0.05, count)
    gammas = rng.uniform(0, 2 * np.pi, count)
    return np.stack([alphas, betas, gammas], axis=1)


def test_criterion_1_linear_pullback_metric():
    start = time.perf_counter()
    tensor = covariance_matrix(su2_spin_rep(0.5), NORTH)
    worst = 0.0
    for point in random_euler_points(100, seed=11):
        metric = evaluate_at(tensor, euler_coframes(point)).metric
        expected = np.array(
            [
                [1.0, 0.0, np.cos(point[1])],
                [0.0, 1.0, 0.0],
                [np.cos(point[1]), 0.0, 1.0],
            ]
        )
        worst = max(worst, float(np.abs(metric - expected).max()))
    elapsed = time.perf_counter() - start
    print("note:", conventions()["su2_linear_metric_note"])
    report(1, "round-metric contraction (100 random points)", worst, 1e-12,
           note=f"  [runtime {elapsed:.3f}s < 1s]")
    assert elapsed < 1.0


def test_criterion_2_projective_pullback_metric():
    start = time.perf_counter()
    tensor = covariance_matrix(su2_spin_rep(0.5), NORTH, projective=True)
    worst = 0.0
    min_rank, max_rank = 3, 0
    for point in random_euler_points(100, seed=13):
        metric = evaluate_at(tensor, euler_coframes(point)).metric
        expected = np.diag([0.0, 1.0, np.sin(point[1]) ** 2])
        worst = max(worst, float(np.abs(metric - expected).max()))
        rank = np.linalg.matrix_rank(metric, tol=1e-10)
        min_rank, max_rank = min(min_rank, rank), max(max_rank, rank)
    directions = degeneracy_directions(su2_spin_rep(0.5), NORTH)
    dir_dev = float(np.abs(np.asarray(directions[0]) - np.array([0, 0, 1])).max())
    elapsed = time.perf_counter() - start
    assert (min_rank, max_rank) == (2, 2)
    assert len(directions) == 1
    print("note:", conventions()["su2_projective_metric_note"])
    report(2, "sphere metric diag(0, 1, sin^2 b), rank 2, null direction (0,0,1)",
           max(worst, dir_dev), 1e-12, note=f"  [runtime {elapsed:.3f}s < 1s]")
    assert elapsed < 1.0


def test_criterion_3_two_form_and_closedness():
    tensor = covariance_matrix(su2_spin_rep(0.5), NORTH)
    worst = 0.0
    for point in random_euler_points(50, seed=17):
        form = evaluate_at(tensor, euler_coframes(point)).two_form
        expected = np.zeros((3, 3))
        expected[1, 2] = np.sin(point[1])
        expected[2, 1] = -np.sin(point[1])
        worst = max(worst, float(np.abs(form - expected).max()))
    report(3, "two-form W_bg = sin(b) at random points", worst, 1e-12)
    closedness = two_form_closedness_residual(tensor, grid_shape=(20, 20), fd_step=1e-4)
    report(3, "two-form closedness over a 20x20 grid", closedness, 1e-6)


def test_criterion_4_maurer_cartan():
    rep = su2_spin_rep(0.5)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        point = [
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0.15, np.pi - 0.15),
            rng.uniform(0, 2 * np.pi),
        ]
        worst = max(worst, maurer_cartan_residual(rep, point, step=1e-5))
    report(4, "Maurer-Cartan residual at 20 nondegenerate points", worst, 1e-8)


def test_criterion_5_weyl_moments():
    worst_re = worst_im = worst_quad = worst_lag = 0.0
    for modes in (1, 2):
        system = build_weyl(modes, 16)
        tensor = gaussian_covariance(system)
        n = 2 * modes
        worst_re = max(worst_re, float(np.abs(tensor.coefficients.real - np.eye(n) / 2).max()))
        worst_im = max(
            worst_im,
            float(np.abs(tensor.coefficients.imag - system.symplectic_form / 2).max()),
        )
        vac = system.vacuum()
        for j in range(modes):
            for k in range(modes):
                oracle = gaussian_moment_oracle(j, k, modes)
                fock = vac @ system.position_ops[j] @ system.position_ops[k] @ vac
                worst_quad = max(worst_quad, abs(complex(fock) - oracle))
        for frame in random_lagrangian_frames(modes, n_samples=4, seed=23):
            restricted = lagrangian_restriction(tensor, frame)
            worst_lag = max(worst_lag, float(np.abs(restricted.coefficients.imag).max()))
    report(5, "Re(T) = I/2 (modes 1..2, cutoff 16)", worst_re, 1e-14)
    report(5, "Im(T) = omega/2 (modes 1..2, cutoff 16)", worst_im, 1e-14)
    report(5, "quadrature oracle vs Fock moments", worst_quad, 1e-10)
    report(5, "Lagrangian restriction kills Im part", worst_lag, 1e-14)


def test_criterion_6_weyl_defect_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    worst_final = 0.0
    worst_growth = 0.0
    for _ in range(3):
        v1 = rng.uniform(-1, 1, 2)
        v2 = rng.uniform(-1, 1, 2)
        v1 *= 0.5 / max(1.0, 2 * float(np.linalg.norm(v1)))
        v2 *= 0.5 / max(1.0, 2 * float(np.linalg.norm(v2)))
        defects = defect_convergence(1, v1, v2, cutoffs=(8, 16, 32))
        worst_growth = max(worst_growth, defects[1] - defects[0], defects[2] - defects[1])
        worst_final = max(worst_final, defects[2])
    elapsed = time.perf_counter() - start
    report(6, "Weyl defect monotone over cutoffs {8,16,32}", worst_growth, 0.0)
    report(6, "Weyl defect at cutoff 32", worst_final, 1e-6,
           note=f"  [runtime {elapsed:.3f}s < 5s]")
    assert elapsed < 5.0


def test_criterion_7_qgt_families():
    fam = bloch_family()
    thetas = np.linspace(0.15, np.pi - 0.15, 10)
    phis = np.linspace(0.0, 2 * np.pi - 0.2, 10)
    worst_metric = 0.0
    worst_fd = 0.0
    for th in thetas:
        for ph in phis:
            spectral = qgt_tensor(fam, [th, ph], a=0)
            expected = 0.25 * np.diag([1.0, np.sin(th) ** 2])
            worst_metric = max(worst_metric, float(np.abs(spectral.metric - expected).max()))
            fd = finite_difference_qgt(fam, [th, ph], a=0, step=1e-5)
            worst_fd = max(worst_fd, float(np.abs(spectral.h - fd.h).max()))
    report(7, "two-level sphere metric = diag(1, sin^2)/4 on 10x10 grid", worst_metric, 1e-8)
    report(7, "spectral vs finite-difference tensor on 10x10 grid", worst_fd, 1e-6)
    h_full = complex(qgt_tensor(landau_zener_family(1.0), [0.0], a=0).h[0, 0])
    report(7, "avoided-crossing tensor value 1/4 at delta=1", abs(h_full - 0.25), 1e-10)
    h_half = complex(qgt_tensor(landau_zener_family(0.5), [0.0], a=0).h[0, 0])
    report(7, "gap halving quadruples the tensor", abs(h_half / h_full - 4.0), 1e-8)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
def test_criterion_8_orbit_vs_spectral(s):
    rep = su2_spin_rep(s)
    fiducial = np.zeros(rep.dim, dtype=complex)
    fiducial[0] = 1.0
    residual = orbit_consistency_check(rep, fiducial, grid_shape=(5, 5))
    report(8, f"orbit pullback vs spectral tensor (spin {s}, 5x5 grid)", residual, 1e-8)


def test_criterion_9_equivariance():
    rng = np.random.default_rng(31)
    rep = su2_spin_rep(0.5)
    base = covariance_matrix(rep, NORTH).coefficients
    worst = 0.0
    for _ in range(20):
        u = exponential_elements(rep, rng.uniform(-1.5, 1.5, 3))
        a = adjoint_matrix(rep, u)
        displaced = covariance_matrix(rep, u @ NORTH).coefficients
        worst = max(worst, float(np.abs(displaced - a @ base @ a.T).max()))
    report(9, "displaced covariance equals adjoint-conjugated tensor (20 elements)", worst, 1e-8)

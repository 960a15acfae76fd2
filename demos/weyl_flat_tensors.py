#!/usr/bin/env python3
"""Weyl system on truncated Fock space: Euclidean metric plus symplectic
form from the vacuum, quadrature cross-check, and the Lagrangian slice."""

import numpy as np

from qpt import (
    build_weyl,
    defect_convergence,
    gaussian_covariance,
    gaussian_moment_oracle,
    lagrangian_restriction,
    weyl_defect,
)

np.set_printoptions(precision=6, suppress=True)

system = build_weyl(modes=1, cutoff=16)
vac = system.vacuum()
q, p = system.mode_rep.generators  # the one validated single-mode rep

print("vacuum moments:  <Q^2> =", (vac @ q @ q @ vac).real,
      "  <QP> =", vac @ q @ p @ vac)

# Independent Gauss-Hermite quadrature of the same moments.
print("quadrature oracle I_00 =", gaussian_moment_oracle(0, 0, 1))

# The pulled-back tensor on phase space: Euclidean metric + symplectic form.
tensor = gaussian_covariance(system)
print("\nT over (Q, P):\n", tensor.coefficients)
print("Re = I/2, Im = omega/2 with omega = [[0,1],[-1,0]]\n")

# Truncation error lives in the displacement products only; it dies fast
# with the cutoff.
v1, v2 = np.array([0.3, 0.1]), np.array([-0.2, 0.25])
print("exchange-relation defect by cutoff:")
for cutoff, defect in zip((8, 16, 32), defect_convergence(1, v1, v2)):
    print(f"  cutoff {cutoff:3d}: {defect:.3e}")

# Restricting to a Lagrangian line kills the symplectic part entirely.
for direction in ([1.0, 0.0], [0.0, 1.0], np.array([1.0, 1.0]) / np.sqrt(2)):
    restricted = lagrangian_restriction(tensor, [np.asarray(direction)])
    print("restriction to span", np.round(direction, 3),
          "->", restricted.coefficients.ravel())

# Two modes: same structure, block form.
system2 = build_weyl(modes=2, cutoff=6)
tensor2 = gaussian_covariance(system2)
print("\ntwo modes, Re(T):\n", tensor2.coefficients.real)
print("two modes, Im(T):\n", tensor2.coefficients.imag)
print("\nparallel displacements commute exactly:",
      weyl_defect(system, [0.2, 0.1], [0.4, 0.2]))

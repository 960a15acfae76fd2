#!/usr/bin/env python3
"""Walk through the spin-orbit pull-back: from Pauli matrices to the
round three-sphere metric and the sphere area form."""

import numpy as np

from qpt import (
    covariance_matrix,
    degeneracy_directions,
    euler_coframes,
    evaluate_at,
    maurer_cartan_residual,
    su2_spin_rep,
)

np.set_printoptions(precision=6, suppress=True)

# The spin-1/2 representation: generators are exactly the Pauli matrices.
rep = su2_spin_rep(0.5)
print("generators R_1..R_3:")
for g in rep.generators:
    print(g, "\n")

# Second moments at the north-pole fiducial (1, 0).
fiducial = np.array([1.0, 0.0])
linear = covariance_matrix(rep, fiducial)
print("T[j,k] = <0| R_j R_k |0> =\n", linear.coefficients, "\n")

# The real part is the metric coefficient matrix, the imaginary part the
# two-form one.  Contracting with the invariant coframe turns them into
# coordinate tensors on the Euler chart.
point = (0.4, 1.1, 2.5)
coframe = euler_coframes(point)
coord = evaluate_at(linear, coframe)
print(f"metric at (a,b,g) = {point}:")
print(coord.metric)
print("expected: unit diagonal with cos(b) =", np.cos(1.1), "in the (a,g) corner\n")

# The projective (ray-space) version drops the isotropy direction and
# leaves the unit-sphere metric diag(0, 1, sin^2 b).
projective = covariance_matrix(rep, fiducial, projective=True)
coord_p = evaluate_at(projective, coframe)
print("projective metric:\n", coord_p.metric)
print("two-form (area form, W_bg = sin b):\n", coord_p.two_form, "\n")

print("degeneracy directions of the projective metric:",
      degeneracy_directions(rep, fiducial))

# The coframe satisfies the structure equation; the residual is finite
# difference noise only.
residual = maurer_cartan_residual(rep, point, step=1e-5)
print("Maurer-Cartan residual at the sample point:", residual)

# Higher spins scale the tensors but keep the structure.
for s in (1.0, 1.5):
    rep_s = su2_spin_rep(s)
    fid = np.zeros(rep_s.dim)
    fid[0] = 1.0
    proj = covariance_matrix(rep_s, fid, projective=True)
    print(f"spin {s}: projective Re(T) diagonal =",
          np.diag(proj.coefficients.real))

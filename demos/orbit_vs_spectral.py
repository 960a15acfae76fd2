#!/usr/bin/env python3
"""The cross-check that ties the package together: the group-orbit
pull-back and the spectral geometric tensor compute the same geometry.

The ground-state ray of H(g) = U(g) (-n.R) U(g)^dag is exactly the orbit
of the highest-weight state, so the projective pull-back (contracted with
the left-invariant coframe in generator normalization) must equal Re(h)
from the spectral formula at every chart point.
"""

import numpy as np

from qpt import (
    covariance_matrix,
    euler_coframes,
    evaluate_at,
    orbit_consistency_check,
    orbit_family,
    qgt_tensor,
    su2_spin_rep,
)
from qpt.liegroup import EULER_GENERATOR_SCALE, LEFT_INVARIANT

np.set_printoptions(precision=6, suppress=True)

for s in (0.5, 1.0, 1.5):
    rep = su2_spin_rep(s)
    fiducial = np.zeros(rep.dim)
    fiducial[0] = 1.0
    residual = orbit_consistency_check(rep, fiducial, grid_shape=(5, 5))
    print(f"spin {s}: max |Re(h) - orbit metric| over 5x5 grid = {residual:.3e}")

# One point in detail, spin 1/2.
rep = su2_spin_rep(0.5)
point = [0.7, 1.2, 2.1]
family = orbit_family(rep, [0, 0, 1])
spectral = qgt_tensor(family, point, a=0)

tensor = covariance_matrix(rep, [1, 0], projective=True)
coframe = euler_coframes(point, frame=LEFT_INVARIANT) * EULER_GENERATOR_SCALE
pulled = evaluate_at(tensor, coframe)

print("\nspectral Re(h):\n", spectral.metric)
print("orbit pull-back metric:\n", pulled.metric)
print("two-form sides (Im h vs pulled-back W):\n",
      spectral.h.imag, "\n", pulled.two_form)

# The same comparison is available from the command line:
#   qpt group --spec group.json --out a.jsonl     (frame=left, normalization=generator)
#   qpt qgt   --spec orbit.json --out b.jsonl     (builtin "orbit" family)
#   qpt compare a.jsonl b.jsonl --tol 1e-8

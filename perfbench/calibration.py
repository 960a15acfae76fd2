"""Reference loops that measure how fast the machine runs at the moment.

The benchmark's host is shared, and its speed drifts by up to 2x over tens
of minutes: the same ``orbit_crosscheck`` round took 15.5-18.8 s in one
quarter of an hour and 7.7-8.0 s half an hour later.  A run therefore times
one of these loops between the ``qpt`` processes it starts, and scales its
times to the speed at which a pass of the loop takes its reference time (see
``measure`` in ``run.py``).

The loops use numpy and scipy only, never ``qpt``, so no change to ``qpt``
moves them.  Each workload is scaled by the loop that resembles its work:

- ``interpreter``: per-point Python with small numpy and scipy calls, like
  the group and qgt grid loops;
- ``dense``: products and an ``expm`` of 384x384 complex matrices, like the
  Weyl system's dense linear algebra on its 1024-dimensional Fock space.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_SMALL = np.array([[0.0, 0.3, 0.0, 0.0], [0.3, 0.1, 0.4j, 0.0],
                   [0.0, -0.4j, 0.2, 0.3], [0.0, 0.0, 0.3, 0.3]])
_LARGE = np.exp(1j * np.arange(384 * 384).reshape(384, 384) * 1e-3) / 384


def interpreter() -> None:
    record = {}
    for i in range(2400):
        t = 1.0 + i * 1e-3
        u = scipy.linalg.expm(-1j * t * _SMALL)
        w, v = np.linalg.eigh(_SMALL * t)
        rho = np.outer(v[:, 0], v[:, 0].conj())
        m = (u @ rho @ u.conj().T).real
        record[i % 16] = [[float(x) for x in row] for row in m] + [float(w[0])]


def dense() -> None:
    a = _LARGE
    for _ in range(3):
        a = a @ _LARGE
    scipy.linalg.expm(-0.5j * (a + a.conj().T))


# kind -> (loop, seconds one pass takes at the reference speed)
LOOPS = {"interpreter": (interpreter, 0.10), "dense": (dense, 0.10)}


def sample(kind: str) -> float:
    """Seconds one pass of the loop takes now."""
    loop, _ = LOOPS[kind]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start

"""Truncated Fock-space ladder operators.

Single-mode matrices act on the number basis ``|0>, ..., |cutoff-1>``;
multi-mode operators are Kronecker products in mode order.  Position and
momentum are normalised so that ``<0|Q^2|0> = 1/2`` and ``[Q, P] = 1j`` on
every matrix element except the truncation corner.
"""

from __future__ import annotations

import numpy as np


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(cutoff - 1)
    a[ks, ks + 1] = np.sqrt(ks + 1.0)
    return a


def embed(op: np.ndarray, mode: int, modes: int, cutoff: int) -> np.ndarray:
    """Kronecker-embed a single-mode operator at position ``mode``."""
    eye = np.eye(cutoff, dtype=complex)
    out = np.array([[1.0]], dtype=complex)
    for m in range(modes):
        out = np.kron(out, op if m == mode else eye)
    return out


def position_momentum(modes: int, cutoff: int) -> np.ndarray:
    """Stack ``(Q^1..Q^n, P^1..P^n)`` of operators on the full space."""
    a = annihilation(cutoff)
    q1 = (a + a.conj().T) / np.sqrt(2.0)
    p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
    return np.array([embed(op, m, modes, cutoff) for op in (q1, p1) for m in range(modes)])


def vacuum(modes: int, cutoff: int) -> np.ndarray:
    v = np.zeros(cutoff**modes, dtype=complex)
    v[0] = 1.0
    return v


def low_fock_mask(modes: int, cutoff: int) -> np.ndarray:
    """Basis states with every mode occupation below ``cutoff - 1``.

    On this subspace the truncated commutators ``[Q, P] = 1j`` hold exactly;
    the corruption from truncation lives entirely on the top level.
    """
    occupations = np.indices((cutoff,) * modes).reshape(modes, -1)
    return (occupations < cutoff - 1).all(axis=0)


def symplectic_form(modes: int) -> np.ndarray:
    """Standard form on generator order ``(Q^1..Q^n, P^1..P^n)``."""
    eye = np.eye(modes)
    zero = np.zeros((modes, modes))
    return np.block([[zero, eye], [-eye, zero]])

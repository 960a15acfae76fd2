"""Truncated Fock-space ladder operators.

Single-mode matrices act on the number basis ``|0>, ..., |cutoff-1>``.
Multi-mode states are flat vectors in Kronecker order, mode 0 most
significant, so a state over ``modes`` modes reads as a ``(cutoff,) * modes``
tensor.  The Weyl path (:mod:`qpt.weyl`) applies single-mode matrices to
such states one axis at a time and never forms a multi-mode operator;
:func:`position_momentum` builds the dense multi-mode operators, as
Kronecker products in mode order, for :func:`qpt.liegroup.heisenberg_rep`
and the dense oracles of the tests.  Position and momentum are normalised so that ``<0|Q^2|0> = 1/2``
and ``[Q, P] = 1j`` on every matrix element except the truncation corner.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecError

# Largest space, cutoff**modes, on which dense multi-mode operators are
# built: 1024 states keeps each of the 2 * modes matrices at 16 MiB and
# admits two modes at cutoff 32.
MAX_DENSE_STATES = 1024


def check_size(modes: int, cutoff: int, max_states: int, what: str) -> None:
    """Refuse ``modes < 1``, ``cutoff < 3`` or ``cutoff**modes > max_states``,
    without forming the power of an oversized request."""
    if modes < 1:
        raise SpecError("modes must be a positive integer")
    if cutoff < 3:
        raise SpecError(f"cutoff must be at least 3, got {cutoff}")
    # cutoff >= 3 > 2, so past this many modes the power exceeds any budget.
    if modes >= max_states.bit_length() or cutoff**modes > max_states:
        raise SpecError(
            f"{what} of {modes} modes at cutoff {cutoff} exceeds the budget of "
            f"{max_states} Fock states"
        )


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(cutoff - 1)
    a[ks, ks + 1] = np.sqrt(ks + 1.0)
    return a


def position_momentum(modes: int, cutoff: int) -> np.ndarray:
    """Stack ``(Q^1..Q^n, P^1..P^n)`` of dense operators on the full space.

    Refuses a space of more than :data:`MAX_DENSE_STATES` states before any
    allocation.
    """
    check_size(modes, cutoff, MAX_DENSE_STATES, "dense position/momentum operators")
    a = annihilation(cutoff)
    q1 = (a + a.conj().T) / np.sqrt(2.0)
    p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
    return np.array(
        [
            np.kron(np.kron(np.eye(cutoff**m, dtype=complex), op), np.eye(cutoff ** (modes - 1 - m), dtype=complex))
            for op in (q1, p1)
            for m in range(modes)
        ]
    )


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

"""Truncated Fock-space ladder operators.

Single-mode matrices act on the number basis ``|0>, ..., |cutoff-1>``.
Multi-mode states are flat vectors in Kronecker order, mode 0 most
significant, so a state over ``modes`` modes reads as a ``(cutoff,) * modes``
tensor.  The Weyl path (:mod:`qpt.weyl`) applies single-mode matrices to
such states one axis at a time and never forms a multi-mode operator.
:func:`ladder_entries` lists the nonzero entries of the multi-mode operators
``I (x) op (x) I``, in mode order: :func:`qpt.liegroup.heisenberg_rep`
validates and applies its rep from them and scatters its dense stack only
when that is read, and :func:`position_momentum` scatters them into the
dense oracles of the tests.  Position and momentum are normalised so that
``<0|Q^2|0> = 1/2`` and ``[Q, P] = 1j`` on every matrix element except the
truncation corner.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecError

# Largest space, cutoff**modes, on which dense multi-mode operators are
# built: 1024 states keeps each of the 2 * modes matrices at 16 MiB and
# admits two modes at cutoff 32.
MAX_DENSE_STATES = 1024


def check_size(modes: int, cutoff: int, max_states: int, what: str, paths=(None, None)) -> None:
    """Refuse ``modes < 1``, ``cutoff < 3`` or ``cutoff**modes > max_states``,
    without forming the power of an oversized request.  ``paths`` are the
    spec paths of ``modes`` and ``cutoff``; the refusal names those that are
    not None."""

    def refuse(message, *named):
        named = [p for p in named if p is not None]
        raise SpecError(f"at {' and '.join(named)}: {message}" if named else message)

    if modes < 1:
        refuse(f"modes must be a positive integer, got {modes}", paths[0])
    if cutoff < 3:
        refuse(f"cutoff must be at least 3, got {cutoff}", paths[1])
    # cutoff >= 3 > 2, so past this many modes the power exceeds any budget.
    if modes >= max_states.bit_length() or cutoff**modes > max_states:
        refuse(
            f"{what} of {modes} modes at cutoff {cutoff} exceeds the budget of "
            f"{max_states} Fock states", *paths
        )


def annihilation(cutoff: int) -> np.ndarray:
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(cutoff - 1)
    a[ks, ks + 1] = np.sqrt(ks + 1.0)
    return a


def ladder_entries(modes: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """Nonzero entries ``(which, rows, cols, values)`` of the stack
    ``(Q^1..Q^n, P^1..P^n)`` on the full space, row-major within each
    generator: the nonzeros of the single-mode ``Q``, ``P`` on every diagonal
    block of the other modes (``I (x) op (x) I``), each value read from that
    single-mode matrix, so its bits are the ones a dense scatter writes.

    Refuses a space of more than :data:`MAX_DENSE_STATES` states before any
    allocation.
    """
    check_size(modes, cutoff, MAX_DENSE_STATES, "dense position/momentum operators")
    a = annihilation(cutoff)
    q1 = (a + a.conj().T) / np.sqrt(2.0)
    p1 = 1j * (a.conj().T - a) / np.sqrt(2.0)
    parts = []
    for op in (q1, p1):
        levels = np.nonzero(op)  # row-major
        for m in range(modes):
            lo, hi = cutoff**m, cutoff ** (modes - 1 - m)
            # The state (before, level, after) has index (before * cutoff + level) * hi + after.
            block = np.arange(lo)[:, None, None] * (cutoff * hi) + np.arange(hi)
            rows, cols = ((block + level[:, None] * hi).reshape(-1) for level in levels)
            # Sorting by row alone keeps each row's columns in the order of op's.
            order = np.argsort(rows, kind="stable")
            values = np.broadcast_to(op[levels][:, None], (lo, levels[0].size, hi)).reshape(-1)
            parts.append((rows[order], cols[order], values[order]))
    which = np.repeat(np.arange(2 * modes), [part[0].size for part in parts])
    return (which, *(np.concatenate(x) for x in zip(*parts)))


def position_momentum(modes: int, cutoff: int) -> np.ndarray:
    """Stack ``(Q^1..Q^n, P^1..P^n)`` of dense operators on the full space,
    the Kronecker products scattered from :func:`ladder_entries` without
    forming them.

    Refuses a space of more than :data:`MAX_DENSE_STATES` states before any
    allocation.
    """
    which, rows, cols, values = ladder_entries(modes, cutoff)
    ops = np.zeros((2 * modes, cutoff**modes, cutoff**modes), dtype=complex)
    ops[which, rows, cols] = values
    return ops


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

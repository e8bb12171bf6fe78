"""Test-only reference for the teleportation branch enumerator.

``walk_teleportation_with_lock`` is the branch-tree walk that
``simulq.protocols.enumerate_teleportation_with_lock`` used before the
batched engine: it Bell-measures one ``(Ai, Ti)`` pair at a time, one branch
at a time, through the public ``contract``/``apply``/``partial_trace``
primitives.  It is slow (seconds at six receivers) but follows the protocol
step by step, so the differential tests compare the engine against it.
"""

from __future__ import annotations

import numpy as np

from simulq import gates, states
from simulq.protocols import TeleportBranch, _teleport_initial
from simulq.qlinalg import (
    ATOL,
    StateVector,
    Unitary,
    apply,
    contract,
    fidelity,
    partial_trace,
)


def walk_teleportation_with_lock(
    payloads, lock: Unitary, unlock: Unitary, receiver_labels=None
) -> list[TeleportBranch]:
    """Exhaustively enumerate every joint Bell branch for an arbitrary lock.

    ``payloads`` is one single-qubit state per receiver; ``lock`` acts on the
    sender qubits (A1..AN) and ``unlock`` on the receiver register.
    """
    payloads = tuple(payloads)
    n = len(payloads)
    if lock.dim != 1 << n or unlock.dim != 1 << n:
        raise ValueError(
            f"{n} receivers need {1 << n}-dimensional lock/unlock operators"
        )
    t_labels = tuple(f"T{i + 1}" for i in range(n))
    a_labels = tuple(f"A{i + 1}" for i in range(n))
    if receiver_labels is None:
        receiver_labels = ("B", "C") if n == 2 else tuple(f"B{i + 1}" for i in range(n))
    r_labels = tuple(receiver_labels)
    if len(r_labels) != n:
        raise ValueError(f"{n} receivers need {n} receiver labels, got {r_labels}")
    bell = states.family("bell")

    state = _teleport_initial(payloads, t_labels, a_labels, r_labels)
    state = apply(state, lock, a_labels)

    # Walk the branch tree: measuring pair i drops (Ai, Ti) from the register,
    # so each leaf ends on exactly the receiver register.
    frontier = [((), 1.0, state)]
    for a, tl in zip(a_labels, t_labels):
        grown = []
        for labels_so_far, prob, st in frontier:
            for (x, y), member in bell.members.items():
                residual, rest = contract(st, member.amplitudes, (a, tl))
                p = float(np.sum(np.abs(residual) ** 2))
                if p <= ATOL:
                    continue
                nxt = StateVector(residual / np.sqrt(p), rest)
                grown.append((labels_so_far + (gates.EncodedBits(x, y),), prob * p, nxt))
        frontier = grown

    branches = []
    for results, prob, pre_unlock in frontier:
        corrected = apply(pre_unlock, unlock, r_labels)
        for bits, r in zip(results, r_labels):
            corrected = apply(corrected, gates.pauli_encoder(bits), (r,))
        fids = tuple(
            fidelity(payloads[i], partial_trace(corrected, (r,)))
            for i, r in enumerate(r_labels)
        )
        branches.append(TeleportBranch(results, prob, pre_unlock, corrected, fids))
    return branches

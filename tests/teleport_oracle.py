"""Test-only references for the two teleportation engines.

``walk_teleportation_with_lock`` is the branch-tree walk that
``simulq.protocols.enumerate_teleportation_with_lock`` used before the
batched engine: it Bell-measures one ``(Ai, Ti)`` pair at a time, one branch
at a time, through the public ``contract``/``apply``/``partial_trace``
primitives.  It is slow (seconds at six receivers) but follows the protocol
step by step, so the differential tests compare the engine against it.

``sample_teleportation`` is the sampled run that
``simulq.protocols.run_teleportation`` used before it moved onto the shared
pairs: it builds the full ``3N``-qubit register and samples each Bell
measurement on it with ``measure_in_family``, drawing from the same random
stream, so it must give the same results and, to rounding, the same
transcript.

``shared_pairs`` is how both engines built the shared pairs before they read
them off the lock: ``N`` ``phi`` pairs joined by ``tensor``, then the lock
applied to the sender halves with ``apply``.

``strided_fidelities`` is the fidelity step the batched enumerator took
before it read every fidelity from one change into the payloads' basis: one
strided two-term sum per payload over the corrected table.

``expanded_corrections`` is how the enumerator built its correction column
and sign tables before it kept them per receiver count: expanded from the
per-digit rows on every call.  ``gathered_corrections`` is the correction
step that used them, one signed gather over the whole unlocked table through
a full-size flat index, into a fresh table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from simulq import gates, states
from simulq.measurement import measure_in_family, resolve_rng
from simulq.protocols import (
    _DIGIT_SIGN,
    _DIGIT_SOURCE,
    ProtocolTranscript,
    TeleportInput,
    _teleport_layout,
    _unlock,
)
from simulq.qlinalg import (
    ATOL,
    StateVector,
    Unitary,
    _grouped,
    apply,
    contract,
    fidelity,
    partial_trace,
    tensor,
)


@dataclass(frozen=True)
class WalkBranch:
    """One branch of the reference walk, under the attribute names of ``TeleportBranch``."""

    results: tuple[gates.EncodedBits, ...]
    probability: float
    pre_unlock_state: StateVector
    corrected_state: StateVector
    fidelities: tuple[float, ...]


def _teleport_initial(payloads, t_labels, a_labels, r_labels) -> StateVector:
    state = StateVector(payloads[0].amplitudes, (t_labels[0],))
    for i in range(1, len(payloads)):
        state = tensor(state, StateVector(payloads[i].amplitudes, (t_labels[i],)))
    for a, r in zip(a_labels, r_labels):
        state = tensor(state, states.phi(0, 0, (a, r)))
    return state


def sample_teleportation(inp: TeleportInput, seed=0) -> ProtocolTranscript:
    """Run one teleportation protocol, sampling each Bell measurement.

    The recorded ``step2_bsm`` intercepts are the physical per-branch reduced
    states, conditioned on *all* measurement results of this run.  What a
    receiver can actually infer before the unlock -- knowing only their own
    classical bits -- is the average over the other receivers' results; that
    epistemic view is what the lock classifier in :mod:`simulq.analysis`
    evaluates.
    """
    n = inp.n_receivers
    r_labels, lock = _teleport_layout(inp.scheme, n)
    t_labels = tuple(f"T{i + 1}" for i in range(n))
    a_labels = tuple(f"A{i + 1}" for i in range(n))
    rng = resolve_rng(seed)
    seed_val = seed if isinstance(seed, int) else None
    bell = states.family("bell")

    t = ProtocolTranscript(protocol=f"teleportation:{inp.scheme}:n={n}", seed=seed_val)
    state = _teleport_initial(inp.payloads, t_labels, a_labels, r_labels)
    t.record("step0_init", state)

    # step 1: Alice locks her halves of the shared pairs
    state = apply(state, lock, a_labels)
    t.record("step1_lock", state)

    # step 2: Bell measurement on each (Ai, Ti) pair
    results = []
    for a, tl in zip(a_labels, t_labels):
        out = measure_in_family(state, bell, (a, tl), rng)
        results.append(gates.as_bits(out.label))
        state = out.post_state
    t.record("step2_bsm", state)
    for r in r_labels:
        t.intercepts[("step2_bsm", (r,))] = partial_trace(state, (r,))

    # step 3: the classical result bits travel to their receivers
    t.record("step3_classical_send", state)

    # step 4: joint unlock on the receiver register
    state = apply(state, _unlock(lock), r_labels)
    t.record("step4_unlock", state)

    # step 5: each receiver re-applies their own encoder
    for bits, r in zip(results, r_labels):
        state = apply(state, gates.pauli_encoder(bits), (r,))
    t.record("step5_correct", state)

    recovered = {r: partial_trace(state, (r,)) for r in r_labels}
    t.outcomes = {
        "results": {r: results[i] for i, r in enumerate(r_labels)},
        "fidelities": {
            r: fidelity(inp.payloads[i], recovered[r]) for i, r in enumerate(r_labels)
        },
        "recovered": recovered,
    }
    return t


def walk_teleportation_with_lock(
    payloads, lock: Unitary, unlock: Unitary, receiver_labels=None
) -> list[WalkBranch]:
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
        branches.append(WalkBranch(results, prob, pre_unlock, corrected, fids))
    return branches


def shared_pairs(lock: Unitary, a_labels, r_labels):
    """The shared pairs ``A1 R1 .. AN RN`` (each ``Phi(0,0)``), built one pair at a time.

    Returns the pairs before and after ``lock`` acts on ``A1..AN``, and the
    locked pairs as a ``2^N x 2^N`` matrix, sender qubits on the rows and
    receivers on the columns.
    """
    shared = states.phi(0, 0, (a_labels[0], r_labels[0]))
    for a, r in zip(a_labels[1:], r_labels[1:]):
        shared = tensor(shared, states.phi(0, 0, (a, r)))
    locked = apply(shared, lock, a_labels)
    matrix = _grouped(locked.amplitudes, [locked.axis_of(a) for a in a_labels])[0]
    return shared, locked, matrix


def strided_fidelities(corrected: np.ndarray, payloads) -> np.ndarray:
    """Each row's fidelity with each payload, one strided two-term sum per payload.

    ``corrected`` is a ``(4^n, 2^n)`` table, one receiver register per row,
    receiver 1 the most significant bit.  Payload ``i``'s fidelity is
    ``sum |conj(p0) row[.., 0, ..] + conj(p1) row[.., 1, ..]|^2`` over
    receiver ``i``'s axis, i.e. ``<p_i|rho_i|p_i>``.
    """
    rows, dim = corrected.shape
    n = dim.bit_length() - 1
    fids = np.empty((rows, n))
    for i, payload in enumerate(payloads):
        split = corrected.reshape(rows, 2**i, 2, 2 ** (n - 1 - i))
        p0, p1 = payload.amplitudes.conj()
        overlap = p0 * split[:, :, 0]
        overlap += p1 * split[:, :, 1]
        weights = np.abs(overlap)
        weights *= weights
        fids[:, i] = np.sum(weights, axis=(1, 2))
    return fids


def expanded_corrections(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(4^n, 2^n)`` correction column and sign tables, expanded from the per-digit rows.

    Entry ``(b, c)`` of branch ``b``'s corrected row is
    ``sign[b, c] * row[col[b, c]]``, receiver 1 the most significant base-4
    digit of ``b`` and bit of ``c``.
    """
    cols = np.zeros((1, 1), dtype=np.uint8)
    signs = np.ones((1, 1), dtype=np.int8)
    for i in range(n):
        # prepend a receiver as the most significant digit and column bit, so
        # the long axes of the broadcast stay innermost
        shape = (4 ** (i + 1), 2 ** (i + 1))
        cols = ((_DIGIT_SOURCE << i)[:, None, :, None] + cols[None, :, None, :]).reshape(shape)
        signs = (_DIGIT_SIGN[:, None, :, None] * signs[None, :, None, :]).reshape(shape)
    return cols, signs


def gathered_corrections(unlocked: np.ndarray) -> np.ndarray:
    """Every receiver's Pauli correction applied to the rows of ``unlocked``, into a fresh table."""
    n = unlocked.shape[1].bit_length() - 1
    cols, signs = expanded_corrections(n)
    # row b starts at flat offset b * 2^n
    corrected = unlocked.reshape(-1).take(cols + (np.arange(4**n)[:, None] << n))
    corrected *= signs
    return corrected

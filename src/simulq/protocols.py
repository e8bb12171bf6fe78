"""Step engines for locked simultaneous dense coding and teleportation.

Dense coding (one sender Alice holding ``A1``/``A2``, receivers Bob and
Charlie, laid out per channel by ``states.DENSE_CHANNELS``) runs four steps::

    step1_encode     Alice applies a Pauli encoder per receiver message
    step2_lock_send  Alice locks (A1, A2) with a joint unitary and transmits
    step3_unlock     Bob and Charlie jointly apply the inverse lock
    step4_measure    each receiver measures their subsystem in the channel family

Teleportation (payloads on ``T1..TN``, receivers on ``B, C`` for the
two-receiver scheme and ``B1..BN`` for the Fourier scheme) runs five::

    step1_lock            Alice locks her halves (A1..AN) of the shared pairs
    step2_bsm             Alice Bell-measures each (Ai, Ti) pair
    step3_classical_send  the two result bits per pair go to their receiver
    step4_unlock          the receivers jointly apply the lock's elementwise conjugate
    step5_correct         each receiver applies their own Pauli encoder

Transcripts record a snapshot per step, the standard intercepted reduced
matrices, and the measured / decoded outcomes.

Both teleportation engines use that a Bell measurement is a basis rotation
followed by a computational readout, and that the payloads are a product
state: they start from the locked shared pairs ``A1 R1 .. AN RN`` alone, as
a ``2^N x 2^N`` matrix (sender rows, receiver columns) read off the lock
with no register built (:func:`_locked_pairs`), and fold each payload into
its pair's 4x2 Bell readout (:func:`_readouts`).  The sampled run
maps one sender axis at a time to four candidate rows, draws one with
``measurement``'s Born-rule draw and keeps it, so it measures nothing larger
than the shared pairs and applies the unlock and corrections to the ``2^N``
receiver register.  Its ``3N``-qubit snapshots are built only when they are
read, each as one outer product: the payloads times the pair matrix before
the measurement, the drawn Bell members times that register after it.  The
exhaustive enumerator keeps all four rows at every pair, and so reads every
joint branch as one row of a ``4^N x 2^N`` table.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import gates, states
from .measurement import _born_draw, measure_in_family, resolve_rng
from .qlinalg import (
    DensityMatrix,
    StateVector,
    Unitary,
    _as_count,
    _check_labels,
    _jsonable,
    _StateTable,
    _ungrouped_outer,
    apply,
    fidelity,
    partial_trace,
    to_wire,
)
from .states import DENSE_CHANNELS

# The named dense coding locks, by their command-line ``--lock`` names.
_LOCKS = {"qft": lambda: gates.qft(2), "ulock": gates.lock_operator}

# The named teleportation schemes (:func:`_teleport_layout`), by their
# command-line ``--teleport`` names.
_SCHEMES = {"qft": "qftN", "ulock": "ulock2"}

# Most receivers a teleportation run or enumeration takes: the enumerator
# returns two 4^N x 2^N branch tables, one 8 MiB block at N = 6, and works on
# the second one in place, a block of rows at a time; each receiver more is 8x
# that (so is each 3N-qubit snapshot of a sampled run, built only when it is
# read).
MAX_RECEIVERS = 6

DENSE_STEPS = (
    "step0_init",
    "step1_encode",
    "step2_lock_send",
    "step3_unlock",
    "step4_measure",
)

TELEPORT_STEPS = (
    "step0_init",
    "step1_lock",
    "step2_bsm",
    "step3_classical_send",
    "step4_unlock",
    "step5_correct",
)


@dataclass(frozen=True)
class TeleportInput:
    """Configuration of one simultaneous teleportation run.

    ``scheme`` is ``ulock2`` (two receivers, Hadamard--CNOT lock) or ``qftN``
    (1 to ``MAX_RECEIVERS`` receivers, Fourier lock), as
    :func:`_teleport_layout` checks.  ``payloads`` are the single-qubit
    states to teleport, one per receiver.  ``n_receivers`` is a count
    (:func:`~simulq.qlinalg._as_count`), stored as an ``int``.
    """

    scheme: str
    payloads: tuple[StateVector, ...]
    n_receivers: int

    def __post_init__(self) -> None:
        n = _as_count(self.n_receivers, "receiver count")
        _teleport_layout(self.scheme, n)
        payloads = tuple(self.payloads)
        if len(payloads) != n:
            raise ValueError(f"{n} receivers need {n} payloads, got {len(payloads)}")
        _check_payloads(payloads)
        object.__setattr__(self, "n_receivers", n)
        object.__setattr__(self, "payloads", payloads)


def _require_lock(lock, n: int) -> None:
    """Refuse a lock that is not a ``Unitary`` on ``n`` sender qubits, before any of it is read."""
    if not isinstance(lock, Unitary):
        raise ValueError(f"the lock must be a Unitary, got {type(lock).__name__}")
    if lock.dim != 1 << n:
        qubits = f"{n} sender qubit" + "s" * (n != 1)
        raise ValueError(f"the lock must act on {qubits}, got a {lock.dim}x{lock.dim} matrix")


def _check_payloads(payloads) -> None:
    """Refuse payloads that are not single-qubit states, for both teleportation entry points."""
    for p in payloads:
        if not isinstance(p, StateVector) or p.n_qubits != 1:
            raise ValueError("payloads must be single-qubit states")


@dataclass
class ProtocolTranscript:
    """Record of one protocol run.

    ``steps`` holds ``(step_name, full-register snapshot)`` in execution
    order; ``intercepts`` maps ``(stage, subsystem labels)`` to the reduced
    density matrix an eavesdropper (or lone receiver) would hold there.

    :meth:`record` appends a step with its snapshot or with a builder of it.
    A builder is called when ``steps``, :meth:`step_state` or
    ``to_dict(include_snapshots=True)`` first reads its step, and its
    snapshot is kept; a builder recorded for several steps is called once
    for all of them.  Names alone are read without building anything.

    :meth:`to_dict` writes each matrix in the wire format with ``re`` and
    ``im`` as nested lists (:func:`~simulq.qlinalg.to_wire`); ``simulq run``
    prints the same data with them as the float64 arrays the command line's
    JSON writer formats straight from (:func:`~simulq.qlinalg._wire_arrays`).
    """

    protocol: str
    intercepts: dict[tuple[str, tuple[str, ...]], DensityMatrix] = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    seed: int | None = None
    _steps: list[tuple[str, StateVector | Callable[[], StateVector]]] = field(
        default_factory=list, init=False, repr=False
    )

    def record(self, name: str, snapshot: StateVector | Callable[[], StateVector]) -> None:
        """Append step ``name`` with its snapshot, or with a builder called on the first read."""
        self._steps.append((name, snapshot))

    def _snapshot(self, i: int) -> StateVector:
        snapshot = self._steps[i][1]
        if not isinstance(snapshot, StateVector):
            builder, snapshot = snapshot, snapshot()
            self._steps = [(n, snapshot if s is builder else s) for n, s in self._steps]
        return snapshot

    @property
    def steps(self) -> list[tuple[str, StateVector]]:
        return [(name, self._snapshot(i)) for i, (name, _) in enumerate(self._steps)]

    def step_state(self, name: str) -> StateVector:
        for i, (step_name, _) in enumerate(self._steps):
            if step_name == name:
                return self._snapshot(i)
        raise KeyError(f"no step named {name!r}; steps are {[s for s, _ in self._steps]}")

    def to_dict(self, include_snapshots: bool = False) -> dict:
        return self._data(to_wire, include_snapshots)

    def _data(self, wire: Callable[..., dict], include_snapshots: bool) -> dict:
        """:meth:`to_dict`'s data with every matrix written by ``wire``."""
        steps = [{"name": name} for name, _ in self._steps]
        if include_snapshots:
            for i, step in enumerate(steps):
                step["state"] = wire(self._snapshot(i))
        intercepts = {
            f"{stage}/{','.join(labels)}": wire(rho)
            for (stage, labels), rho in self.intercepts.items()
        }
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "steps": steps,
            "intercepts": intercepts,
            "outcomes": _jsonable(self.outcomes, wire),
        }


# --- dense coding -----------------------------------------------------------


def run_dense_coding_with_lock(
    channel: str,
    bob_bits,
    charlie_bits,
    lock: Unitary,
    lock_name: str = "custom",
    seed=0,
) -> ProtocolTranscript:
    """Run dense coding: Alice sends ``bob_bits`` and ``charlie_bits`` over ``channel``.

    ``lock`` is any 4x4 unitary on ``(A1, A2)`` (the receivers unlock with its
    adjoint) and ``lock_name`` names it in the protocol id.  An unknown
    channel, bits that are not a pair of 0/1 values, a lock that is not a
    ``Unitary`` or a lock of another size raise ``ValueError``.
    """
    _require_lock(lock, 2)
    state = states.initial_state(channel)
    cfg = DENSE_CHANNELS[channel]
    fam = states.family(channel)
    rng = resolve_rng(seed)
    init, encode, lock_send, unlock, measure = DENSE_STEPS

    t = ProtocolTranscript(
        protocol=f"dense_coding:{channel}:{lock_name}", seed=None if rng is seed else int(seed)
    )
    t.record(init, state)

    # step 1: Alice encodes one message per receiver on her qubits
    state = apply(state, gates.pauli_encoder(bob_bits), ("A1",))
    state = apply(state, gates.pauli_encoder(charlie_bits), ("A2",))
    t.record(encode, state)

    # step 2: joint lock on (A1, A2); the qubits are then in transit, so
    # record what each receiver's subsystem alone reveals
    state = apply(state, lock, ("A1", "A2"))
    t.record(lock_send, state)
    for sub in (cfg["bob"], cfg["charlie"]):
        t.intercepts[(lock_send, sub)] = partial_trace(state, sub)

    # step 3: the receivers jointly invert the lock
    state = apply(state, gates.adjoint(lock), ("A1", "A2"))
    t.record(unlock, state)

    # step 4: each receiver measures his subsystem in the channel family
    bob_out = measure_in_family(state, fam, cfg["bob"], rng)
    charlie_out = measure_in_family(bob_out.post_state, fam, cfg["charlie"], rng)
    t.record(measure, charlie_out.post_state)
    t.outcomes = {"bob": bob_out.label, "charlie": charlie_out.label}
    return t


# --- teleportation ----------------------------------------------------------


class TeleportBranch(NamedTuple):
    """One joint Bell-measurement branch of a teleportation run.

    ``pre_unlock_state`` is the receiver register right after the sender's
    measurements collapse it (before any classical message is used);
    ``corrected_state`` is the same register after unlock and per-receiver
    correction, which should equal the payload product up to global phase.

    A branch stores its results, probability and fidelities.  Its two states
    are row ``row`` of the enumeration's two shared ``tables`` (pre-unlock,
    corrected), each validated once for all branches; a state is built when
    it is read, as a read-only view of its row.
    """

    results: tuple[gates.EncodedBits, ...]
    probability: float
    fidelities: tuple[float, ...]
    row: int
    tables: tuple[_StateTable, _StateTable]

    @property
    def pre_unlock_state(self) -> StateVector:
        return self.tables[0][self.row]

    @property
    def corrected_state(self) -> StateVector:
        return self.tables[1][self.row]

    @property
    def receivers(self) -> tuple[str, ...]:
        """The receiver labels, read without building a state."""
        return self.tables[0].labels


_TWO_RECEIVERS = ("B", "C")


def _numbered(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _teleport_layout(scheme: str, n: int):
    """Receiver labels and lock of a named scheme.

    The one place that knows the named schemes: an unknown scheme or a
    receiver count it does not support is refused before anything is built,
    so :class:`TeleportInput` and the command line call it first and a huge
    count costs no allocation.  The lock is read from the gate table, built
    and checked on its first request in the process, so every run and
    enumeration of the scheme shares it, and the unlock kept on it
    (:func:`_unlock`).
    """
    if scheme == "ulock2":
        if n != 2:
            raise ValueError("the ulock2 scheme has exactly 2 receivers")
        return _TWO_RECEIVERS, gates._gate("ulock", 2)
    if scheme == "qftN":
        if not 1 <= n <= MAX_RECEIVERS:
            raise ValueError(f"qftN supports 1..{MAX_RECEIVERS} receivers, got {n}")
        return _numbered("B", n), gates._gate("qft", n)
    raise ValueError(f"unknown scheme {scheme!r}; expected ulock2 or qftN")


def _unlock(lock: Unitary) -> Unitary:
    """The receivers' joint inverse of a teleportation lock.

    The joint state picked up by the receivers carries the transpose of the
    lock, so the inverse they must apply is its elementwise conjugate.  For
    the (real) Hadamard--CNOT lock that is the lock itself; for the
    (symmetric) Fourier lock it is the ordinary adjoint.

    It is built once per ``lock`` and kept on it, as :func:`gates.adjoint`
    keeps the inverse of a dense coding lock, so every enumeration and run
    under one lock shares one unlock.
    """
    kept = lock.__dict__.get("_unlock")
    if kept is None:
        kept = lock.__dict__["_unlock"] = Unitary(lock.entries.conj())
    return kept


# The conjugated Bell members as a read-only 4x2x2 array, in member order
_BELL_READOUT = states.family("bell").bras.conj().reshape(4, 2, 2)
_BELL_READOUT.setflags(write=False)


def _readouts(payloads) -> list[np.ndarray]:
    """Each payload folded into its pair's 4x2 Bell readout.

    A Bell measurement of ``(Ai, Ti)`` is the rotation whose rows are the
    conjugated Bell members followed by a computational readout, so
    contracted with payload ``i`` on ``Ti`` it maps the sender bit ``Ai`` to
    amplitudes of the pair's four outcomes, in member order.  The rotation is
    unitary because :class:`~simulq.states.BasisFamily` has checked that its
    four members are orthonormal.
    """
    return [_BELL_READOUT @ p.amplitudes for p in payloads]


# The nonzero amplitude of N = 1..MAX_RECEIVERS pairs Phi(0,0): its 1/sqrt(2) taken
# N times, left to right as ``tensor`` joins pairs (two give 0.4999999999999999)
_PAIR_SCALES = tuple(
    itertools.accumulate([states.phi(0, 0).amplitudes[0].real] * MAX_RECEIVERS, operator.mul)
)


def _locked_pairs(n: int, lock: Unitary | None = None) -> np.ndarray:
    """The pairs ``A1 R1 .. AN RN`` (each ``Phi(0,0)``) after ``lock`` on ``A1..AN``, or unlocked.

    A fresh ``2^N x 2^N`` matrix with sender rows and receiver columns: read so, the
    pairs are ``I / sqrt(2^N)`` and the locked pairs the lock over ``sqrt(2^N)``.
    """
    entries = np.eye(1 << n, dtype=np.complex128) if lock is None else lock.entries
    return entries * _PAIR_SCALES[n - 1]


def _snapshot_register(rows: np.ndarray, cols: np.ndarray, order, labels) -> StateVector:
    """The register ``rows (x) cols`` on ``labels``, rows and columns laid out by ``order``.

    ``order`` lists the register positions that ``rows`` runs over, then those
    of ``cols``, as :func:`~simulq.qlinalg._grouped` lays out a register.  The
    amplitudes are a fresh array, so the one-row table takes it over with the
    constructor's checks and no copy.
    """
    amplitudes = _ungrouped_outer(rows, cols, order)
    return _StateTable(amplitudes.reshape(1, -1), labels)[0]


def run_teleportation(inp: TeleportInput, seed=0) -> ProtocolTranscript:
    """Run one teleportation protocol, sampling each Bell measurement.

    The recorded ``step2_bsm`` intercepts are the physical per-branch reduced
    states, conditioned on *all* measurement results of this run.  What a
    receiver can actually infer before the unlock -- knowing only their own
    classical bits -- is the average over the other receivers' results; that
    epistemic view is what the lock classifier in :mod:`simulq.analysis`
    evaluates.

    Pair ``i``'s measurement maps the first unmeasured sender axis of the
    locked shared pairs through its folded readout to four candidate rows.
    One row is drawn and kept, normalised, by :mod:`simulq.measurement`'s
    Born-rule draw, which also raises ``ProtocolViolation`` when the rows'
    weights fall short of 1.  The unlock, corrections and reduced states
    then act on the ``2^N`` receiver register alone.  Each snapshot is the
    full ``3N``-qubit register ``T1..TN A1 R1 .. AN RN``, one outer product
    built by :func:`_snapshot_register`: the payload product times the pair
    matrix of :func:`_locked_pairs` for steps 0 and 1, and the drawn Bell
    members on the ``(Ai, Ti)`` pairs times the receiver register after
    that.  Each is recorded as a builder, so it is built only when read.

    The transcript records ``seed`` as the integer the run draws from
    (``np.int64(5)`` as 5, ``True`` as 1), and a ready generator as ``None``.
    """
    n = inp.n_receivers
    r_labels, lock = _teleport_layout(inp.scheme, n)
    t_labels, a_labels = _numbered("T", n), _numbered("A", n)
    rng = resolve_rng(seed)
    init, lock_step, bsm, send, unlock_step, correct = TELEPORT_STEPS
    bell = states.family("bell")
    members = list(bell.members.items())
    rows = _locked_pairs(n, lock)

    # every snapshot is rows times columns on T1..TN A1 R1 .. AN RN: the
    # payloads (T1..TN) times a pair matrix (A1..AN, R1..RN) for steps 0 and 1,
    # the drawn members (A1, T1, .., AN, TN) times the receivers after that
    labels = t_labels + tuple(itertools.chain.from_iterable(zip(a_labels, r_labels)))
    unmeasured = [labels.index(q) for q in t_labels + a_labels + r_labels]
    measured = [labels.index(q) for at in zip(a_labels, t_labels) for q in at]
    measured += unmeasured[2 * n :]

    def snapshot(rows: np.ndarray, cols: np.ndarray, order):
        # the arrays are bound as the step is recorded: ``rows`` and ``received`` are rebound
        return functools.partial(_snapshot_register, rows, cols, order, labels)

    payloads = functools.reduce(np.multiply.outer, [p.amplitudes for p in inp.payloads])
    t = ProtocolTranscript(
        protocol=f"teleportation:{inp.scheme}:n={n}", seed=None if rng is seed else int(seed)
    )
    t.record(init, snapshot(payloads, _locked_pairs(n), unmeasured))

    # step 1: Alice locks her halves of the shared pairs
    t.record(lock_step, snapshot(payloads, rows, unmeasured))

    # step 2: Bell measurement on each (Ai, Ti) pair; ``rows`` runs over the
    # unmeasured sender qubits and ``pairs`` holds the drawn members so far
    results, pairs = [], np.ones(1)
    for a, tl, readout in zip(a_labels, t_labels, _readouts(inp.payloads)):
        pick, _, rows = _born_draw(readout @ rows.reshape(2, -1), bell, (a, tl), rng)
        label, member = members[pick]
        results.append(gates.EncodedBits(*label))
        pairs = np.multiply.outer(pairs, member.amplitudes).reshape(-1)
    received = StateVector(rows, r_labels)
    drawn = snapshot(pairs, received.amplitudes, measured)
    t.record(bsm, drawn)
    for r in r_labels:
        t.intercepts[(bsm, (r,))] = partial_trace(received, (r,))

    # step 3: the classical result bits travel to their receivers
    t.record(send, drawn)

    # step 4: joint unlock on the receiver register
    received = apply(received, _unlock(lock), r_labels)
    t.record(unlock_step, snapshot(pairs, received.amplitudes, measured))

    # step 5: each receiver re-applies their own encoder
    for bits, r in zip(results, r_labels):
        received = apply(received, gates.pauli_encoder(bits), (r,))
    t.record(correct, snapshot(pairs, received.amplitudes, measured))

    recovered = {r: partial_trace(received, (r,)) for r in r_labels}
    t.outcomes = {
        "results": {r: results[i] for i, r in enumerate(r_labels)},
        "fidelities": {
            r: fidelity(inp.payloads[i], recovered[r]) for i, r in enumerate(r_labels)
        },
        "recovered": recovered,
    }
    return t


# Each Pauli encoder as a source row and a sign row, in member order: encoder
# ``d`` sends entry ``c`` of a receiver's two amplitudes to
# ``_DIGIT_SIGN[d, c] * amplitude[_DIGIT_SOURCE[d, c]]``.  The encoders are
# signed permutations with +-1 entries (a test pins this), so each row's one
# nonzero entry is its sum and the rows fit ``uint8`` and ``int8``.
_DIGIT_SOURCE = np.abs(gates._ENCODER_STACK).argmax(axis=2).astype(np.uint8)
_DIGIT_SIGN = gates._ENCODER_STACK.real.sum(axis=2).astype(np.int8)
_DIGIT_SOURCE.setflags(write=False)
_DIGIT_SIGN.setflags(write=False)


@functools.cache
def _correction_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(4^n, 2^n)`` column and sign tables of every branch's corrections.

    Row ``b`` of the table is branch ``b``; receiver ``i`` re-applies the
    Pauli encoder of member ``d``, where ``d`` is base-4 digit ``i`` of ``b``
    (most significant first).  Each encoder is a signed permutation of the
    receiver's two amplitudes, so all ``n`` corrections together are one
    signed gather: entry ``(b, c)`` of a corrected row is
    ``sign[b, c] * row[col[b, c]]``.  The tables are ``uint8`` and ``int8``
    (256 KiB each at n = 6), built once per receiver count from those of
    ``n - 1`` receivers with receiver 1 prepended as the most significant
    digit and column bit, so the long axes of the broadcast stay innermost.
    """
    if n == 0:
        cols, signs = np.zeros((1, 1), dtype=np.uint8), np.ones((1, 1), dtype=np.int8)
    else:
        cols, signs = _correction_tables(n - 1)
        shape = (4**n, 2**n)
        cols = ((_DIGIT_SOURCE << (n - 1))[:, None, :, None] + cols[None, :, None, :]).reshape(shape)
        signs = (_DIGIT_SIGN[:, None, :, None] * signs[None, :, None, :]).reshape(shape)
    cols.setflags(write=False)
    signs.setflags(write=False)
    return cols, signs


# Rows of the corrected table that the enumerator gathers, changes into the
# payloads' basis and reads fidelities from at a time, a power of 4: at n = 6
# a block's temporaries are 256 KiB or less, and n <= 4 is a single block
_BLOCK_ROWS = 256


def _payload_basis(payloads) -> tuple[np.ndarray, np.ndarray]:
    """The receivers' basis change ``W = W_1 (x) .. (x) W_N``, and each payload's squared norm.

    ``W_i`` is the 2x2 unitary whose first row is ``<p_i|`` and whose second
    is ``<p_i^perp|``, with ``p_i`` payload ``i`` scaled to unit norm, so
    ``W`` is unitary and column ``c`` of ``corrected @ W.T`` holds each row's
    amplitude on the product of ``p_i`` (where bit ``i`` of ``c`` is 0) and
    ``p_i^perp`` (where it is 1), receiver 1 the most significant bit.  A
    fidelity read there is scaled by the payload's squared norm, to give
    ``<p_i|rho_i|p_i>`` for a payload that is normalised only to ``ATOL``.
    """
    amps = np.array([p.amplitudes for p in payloads])
    flat = amps.view(np.float64)
    sq_norms = np.einsum("ij,ij->i", flat, flat)
    p0, p1 = (amps / np.sqrt(sq_norms)[:, None]).T
    factors = np.array([p0.conj(), p1.conj(), -p1, p0]).T.reshape(-1, 2, 2)
    basis = factors[0]
    for factor in factors[1:]:
        # np.kron as one broadcast multiply, without np.kron's per-call overhead
        basis = (basis[:, None, :, None] * factor[None, :, None, :]).reshape(2 * len(basis), -1)
    return basis, sq_norms


@functools.cache
def _branch_results(n: int) -> tuple[tuple[gates.EncodedBits, ...], ...]:
    """Every branch's Bell results in branch order, built once per receiver count."""
    outcomes = [gates.EncodedBits(*xy) for xy in states.family("bell").members]
    return tuple(itertools.product(outcomes, repeat=n))


@functools.cache
def _payload_mask(n: int) -> np.ndarray:
    """The read-only ``(2^n, n)`` float mask of "column bit ``i`` is 0", bit 0 the most significant."""
    cols = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)
    mask = 1.0 - (cols & 1)
    mask.setflags(write=False)
    return mask


def enumerate_teleportation_with_lock(
    payloads, lock: Unitary, receiver_labels=None
) -> list[TeleportBranch]:
    """Exhaustively enumerate every joint Bell branch for an arbitrary lock.

    ``payloads`` is one single-qubit state per receiver; ``lock`` acts on the
    sender qubits (A1..AN), and the receivers unlock with its elementwise
    conjugate.  Receivers are labelled ``B, C`` for two and ``B1..BN``
    otherwise, unless ``receiver_labels`` names them.  Used both by the named
    schemes and to probe candidate locking operators.

    All ``4^N`` branches come from one ``4^N x 2^N`` table whose row ``b`` is
    the unnormalised receiver register of branch ``b``: pair 1 is the most
    significant base-4 digit and members run ``(0,0), (0,1), (1,0), (1,1)``.
    A Bell measurement of ``(Ai, Ti)`` is a rotation into the Bell basis
    followed by a computational readout, and the payloads are a product
    state, so the table is built from the locked shared pairs alone: the
    ``2^N x 2^N`` matrix that :func:`_locked_pairs` reads off the lock, each
    sender row axis mapped to its four outcomes by the 4x2 readout of pair
    ``i`` folded with payload ``i``.  Row norms squared are the branch
    probabilities (each exactly ``4^-N``, since the sender halves are
    maximally mixed) and the unlock is one matrix product on the normalised
    rows, written into the corrected table.  Both tables are the halves of
    one ``(2, 4^N, 2^N)`` block allocated first, and the table is built
    inside it: the products before the last pair's, half the corrected table
    at most, alternate between the halves of the corrected table, and the
    last writes the table itself.  The corrected table is then walked
    ``_BLOCK_ROWS`` rows at a time: the per-receiver
    corrections are a signed gather through the tables kept per receiver
    count (:func:`_correction_tables`), copied back into the block's rows,
    and the fidelities one more product, into the payloads' basis
    (:func:`_payload_basis`), in a buffer reused by every block: payload
    ``i``'s fidelity is a row's squared weight on the columns whose bit
    ``i`` is 0.  The normalised table and the corrected one are each
    validated once, as a whole, and every branch is a
    :class:`TeleportBranch` record pointing at its row of both.
    Between 1 and ``MAX_RECEIVERS`` receivers are accepted, the lock must be
    a :class:`~simulq.qlinalg.Unitary` and every payload a single-qubit state.
    """
    payloads = tuple(payloads)
    n = len(payloads)
    if not 1 <= n <= MAX_RECEIVERS:
        raise ValueError(
            f"{n} receivers requested; the enumerator takes 1..{MAX_RECEIVERS} receivers"
        )
    _require_lock(lock, n)
    _check_payloads(payloads)
    if receiver_labels is None:
        receiver_labels = _TWO_RECEIVERS if n == 2 else _numbered("B", n)
    r_labels = tuple(receiver_labels)
    if len(r_labels) != n:
        raise ValueError(f"{n} receivers need {n} receiver labels, got {r_labels}")
    _check_labels(r_labels)

    # both returned tables are the halves of one block: glibc's malloc then
    # keeps that much memory in its heap, and a warm call faults in no pages
    table, corrected = np.empty((2, 4**n, 1 << n), dtype=np.complex128)
    halves = corrected.reshape(2, -1)
    grown = _locked_pairs(n, lock)
    # pair i maps each row's first sender axis to its four outcomes; the
    # products before the last alternate between the halves of ``corrected``
    for i, readout in enumerate(_readouts(payloads)):
        out = table if i == n - 1 else halves[i % 2][: 2 * grown.size]
        grown = np.matmul(readout, grown.reshape(4**i, 2, -1), out=out.reshape(4**i, 4, -1))
    flat = table.view(np.float64)
    probabilities = np.einsum("ij,ij->i", flat, flat)
    flat /= np.sqrt(probabilities)[:, None]

    # the unlock product fills the corrected table, corrected in place below
    np.matmul(table, _unlock(lock).entries.T, out=corrected)
    cols, signs = _correction_tables(n)
    basis, sq_norms = _payload_basis(payloads)
    scaled_mask = _payload_mask(n) * sq_norms
    fids = np.empty((4**n, n))
    # _BLOCK_ROWS is a power of 4, so every block is full; row r of a block
    # starts at flat offset r * 2^n of the block
    step = min(4**n, _BLOCK_ROWS)
    offsets = np.arange(step)[:, None] << n
    amps = np.empty((step, 1 << n), dtype=np.complex128)
    weights = np.empty(amps.shape)
    for start in range(0, 4**n, step):
        rows = slice(start, start + step)
        block = corrected[rows]
        gathered = block.reshape(-1).take(cols[rows] + offsets)
        np.multiply(gathered, signs[rows], out=block)
        np.matmul(block, basis.T, out=amps)
        np.abs(amps, out=weights)
        weights *= weights
        np.matmul(weights, scaled_mask, out=fids[rows])

    tables = (_StateTable(table, r_labels), _StateTable(corrected, r_labels))
    # tuple.__new__ builds each record as TeleportBranch._make does, without its Python frame
    return list(
        map(
            tuple.__new__,
            itertools.repeat(TeleportBranch),
            zip(
                _branch_results(n),
                probabilities.tolist(),
                zip(*fids.T.tolist()),
                range(4**n),
                itertools.repeat(tables),
            ),
        )
    )


def enumerate_teleportation(inp: TeleportInput) -> list[TeleportBranch]:
    """Exhaustively enumerate the joint Bell branches of a named scheme."""
    r_labels, lock = _teleport_layout(inp.scheme, inp.n_receivers)
    return enumerate_teleportation_with_lock(inp.payloads, lock, r_labels)

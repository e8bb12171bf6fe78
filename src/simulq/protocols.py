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
state: they lock only the shared pairs ``A1 R1 .. AN RN``, read them as a
``2^N x 2^N`` matrix (sender rows, receiver columns) and fold each payload
into its pair's 4x2 Bell readout (:func:`_shared_pairs`).  The sampled run
maps one sender axis at a time to four candidate rows, draws one with
``measurement``'s Born-rule draw and keeps it, so it measures nothing larger
than the shared pairs and applies the unlock and corrections to the ``2^N``
receiver register; its ``3N``-qubit snapshots are assembled from the drawn
Bell members and that register.  The exhaustive enumerator keeps all four
rows at every pair, and so reads every joint branch as one row of a
``4^N x 2^N`` table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import gates, states
from .measurement import _born_draw, measure_in_family, resolve_rng
from .qlinalg import (
    DensityMatrix,
    StateVector,
    Unitary,
    _derived,
    _grouped,
    _jsonable,
    _state_rows,
    _ungrouped,
    apply,
    fidelity,
    partial_trace,
    tensor,
    to_wire,
)
from .states import DENSE_CHANNELS

# The named dense coding locks, by their command-line ``--lock`` names.
_LOCKS = {"qft": lambda: gates.qft(2), "ulock": gates.lock_operator}

# Most receivers a teleportation run or enumeration takes: the enumerator
# holds two 4^N x 2^N branch tables, 4 MiB each at N = 6, and each receiver
# more is 8x that (the sampled run's 3N-qubit snapshots are 4 MiB at N = 6 too).
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
    (1 to ``MAX_RECEIVERS`` receivers, Fourier lock).  ``payloads`` are the
    single-qubit states to teleport, one per receiver.
    """

    scheme: str
    payloads: tuple[StateVector, ...]
    n_receivers: int

    def __post_init__(self) -> None:
        payloads = tuple(self.payloads)
        if self.scheme == "ulock2":
            if self.n_receivers != 2:
                raise ValueError("the ulock2 scheme has exactly 2 receivers")
        elif self.scheme == "qftN":
            if not 1 <= self.n_receivers <= MAX_RECEIVERS:
                raise ValueError(
                    f"qftN supports 1..{MAX_RECEIVERS} receivers, got {self.n_receivers}"
                )
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected ulock2 or qftN")
        if len(payloads) != self.n_receivers:
            raise ValueError(
                f"{self.n_receivers} receivers need {self.n_receivers} payloads,"
                f" got {len(payloads)}"
            )
        for p in payloads:
            if p.n_qubits != 1:
                raise ValueError("payloads must be single-qubit states")
        object.__setattr__(self, "payloads", payloads)


@dataclass
class ProtocolTranscript:
    """Record of one protocol run.

    ``steps`` holds ``(step_name, full-register snapshot)`` in execution
    order; ``intercepts`` maps ``(stage, subsystem labels)`` to the reduced
    density matrix an eavesdropper (or lone receiver) would hold there.
    """

    protocol: str
    steps: list[tuple[str, StateVector]] = field(default_factory=list)
    intercepts: dict[tuple[str, tuple[str, ...]], DensityMatrix] = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    seed: int | None = None

    def step_state(self, name: str) -> StateVector:
        for step_name, snapshot in self.steps:
            if step_name == name:
                return snapshot
        raise KeyError(f"no step named {name!r}; steps are {[s for s, _ in self.steps]}")

    def to_dict(self, include_snapshots: bool = False) -> dict:
        steps = [
            {"name": name, "state": to_wire(snap)} if include_snapshots else {"name": name}
            for name, snap in self.steps
        ]
        intercepts = {
            f"{stage}/{','.join(labels)}": to_wire(rho)
            for (stage, labels), rho in self.intercepts.items()
        }
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "steps": steps,
            "intercepts": intercepts,
            "outcomes": _jsonable(self.outcomes),
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
    channel, bits that are not a pair of 0/1 values or a lock of another size
    raise ``ValueError``.
    """
    if lock.dim != 4:
        raise ValueError(f"the lock acts on (A1, A2) and must be 4x4, got {lock.dim}")
    state = states.initial_state(channel)
    cfg = DENSE_CHANNELS[channel]
    fam = states.family(channel)
    rng = resolve_rng(seed)
    seed_val = seed if isinstance(seed, int) else None

    t = ProtocolTranscript(
        protocol=f"dense_coding:{channel}:{lock_name}", seed=seed_val
    )
    t.steps.append(("step0_init", state))

    # step 1: Alice encodes one message per receiver on her qubits
    state = apply(state, gates.pauli_encoder(bob_bits), ("A1",))
    state = apply(state, gates.pauli_encoder(charlie_bits), ("A2",))
    t.steps.append(("step1_encode", state))

    # step 2: joint lock on (A1, A2); the qubits are then in transit, so
    # record what each receiver's subsystem alone reveals
    state = apply(state, lock, ("A1", "A2"))
    t.steps.append(("step2_lock_send", state))
    for sub in (cfg["bob"], cfg["charlie"]):
        t.intercepts[("step2_lock_send", sub)] = partial_trace(state, sub)

    # step 3: the receivers jointly invert the lock
    state = apply(state, gates.adjoint(lock), ("A1", "A2"))
    t.steps.append(("step3_unlock", state))

    # step 4: each receiver measures his subsystem in the channel family
    bob_out = measure_in_family(state, fam, cfg["bob"], rng)
    charlie_out = measure_in_family(bob_out.post_state, fam, cfg["charlie"], rng)
    t.steps.append(("step4_measure", charlie_out.post_state))
    t.outcomes = {"bob": bob_out.label, "charlie": charlie_out.label}
    return t


# --- teleportation ----------------------------------------------------------


@dataclass(frozen=True)
class TeleportBranch:
    """One joint Bell-measurement branch of a teleportation run.

    ``pre_unlock_state`` is the receiver register right after the sender's
    measurements collapse it (before any classical message is used);
    ``corrected_state`` is the same register after unlock and per-receiver
    correction, which should equal the payload product up to global phase.
    """

    results: tuple[gates.EncodedBits, ...]
    probability: float
    pre_unlock_state: StateVector
    corrected_state: StateVector
    fidelities: tuple[float, ...]


_TWO_RECEIVERS = ("B", "C")


def _numbered(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _teleport_labels(n: int, receiver_labels=None):
    """``T1..``, ``A1..`` and receiver labels; receivers default to ``B, C`` or ``B1..BN``."""
    if receiver_labels is None:
        receiver_labels = _TWO_RECEIVERS if n == 2 else _numbered("B", n)
    r_labels = tuple(receiver_labels)
    if len(r_labels) != n:
        raise ValueError(f"{n} receivers need {n} receiver labels, got {r_labels}")
    return _numbered("T", n), _numbered("A", n), r_labels


def _teleport_layout(scheme: str, n: int):
    """Receiver labels and lock of a named scheme."""
    if scheme == "ulock2":
        return _TWO_RECEIVERS, gates.lock_operator()
    return _numbered("B", n), gates.qft(n)


def _unlock(lock: Unitary) -> Unitary:
    """The receivers' joint inverse of a teleportation lock.

    The joint state picked up by the receivers carries the transpose of the
    lock, so the inverse they must apply is its elementwise conjugate.  For
    the (real) Hadamard--CNOT lock that is the lock itself; for the
    (symmetric) Fourier lock it is the ordinary adjoint.  It is built once
    per lock and kept on it, so the 36 enumerations of a lock verdict share one.
    """
    return _derived(lock, "_unlock", lambda u: Unitary(u.entries.conj()))


@functools.cache
def _bell_readout() -> np.ndarray:
    """The conjugated Bell members as a read-only 4x2x2 array, in member order."""
    bell = states.family("bell")
    readout = np.array([m.amplitudes.conj() for m in bell.members.values()]).reshape(4, 2, 2)
    readout.setflags(write=False)
    return readout


def _shared_pairs(payloads, lock: Unitary, a_labels, r_labels):
    """The shared pairs and Bell readouts both teleportation engines start from.

    Returns the shared pairs ``A1 R1 .. AN RN`` (each ``Phi(0,0)``) before
    and after ``lock`` acts on ``A1..AN``; the locked pairs as a ``2^N x 2^N``
    matrix, sender qubits on the rows and receivers on the columns; and one
    4x2 readout per payload.  A Bell measurement of ``(Ai, Ti)`` is the
    rotation whose rows are the conjugated Bell members followed by a
    computational readout, so contracted with payload ``i`` on ``Ti`` it maps
    the sender bit ``Ai`` to amplitudes of the pair's four outcomes, in member
    order.  The rotation is unitary because :class:`~simulq.states.BasisFamily`
    has checked that its four members are orthonormal.
    """
    shared = states.phi(0, 0, (a_labels[0], r_labels[0]))
    for a, r in zip(a_labels[1:], r_labels[1:]):
        shared = tensor(shared, states.phi(0, 0, (a, r)))
    locked = apply(shared, lock, a_labels)
    matrix = _grouped(locked.amplitudes, [locked.axis_of(a) for a in a_labels])[0]
    readout = _bell_readout()
    return shared, locked, matrix, [readout @ p.amplitudes for p in payloads]


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
    then act on the ``2^N`` receiver register alone.  Each snapshot is the full ``3N``-qubit
    register ``T1..TN A1 R1 .. AN RN``: the drawn Bell members on the
    ``(Ai, Ti)`` pairs times the receiver register.
    """
    n = inp.n_receivers
    r_labels, lock = _teleport_layout(inp.scheme, n)
    t_labels, a_labels, r_labels = _teleport_labels(n, r_labels)
    rng = resolve_rng(seed)
    seed_val = seed if isinstance(seed, int) else None
    bell = states.family("bell")
    members = list(bell.members.items())
    shared, locked, rows, readouts = _shared_pairs(inp.payloads, lock, a_labels, r_labels)

    t = ProtocolTranscript(protocol=f"teleportation:{inp.scheme}:n={n}", seed=seed_val)
    payload = StateVector(inp.payloads[0].amplitudes, (t_labels[0],))
    for p, tl in zip(inp.payloads[1:], t_labels[1:]):
        payload = tensor(payload, StateVector(p.amplitudes, (tl,)))
    init = tensor(payload, shared)
    t.steps.append(("step0_init", init))

    # step 1: Alice locks her halves of the shared pairs
    t.steps.append(("step1_lock", tensor(payload, locked)))

    # step 2: Bell measurement on each (Ai, Ti) pair; ``rows`` runs over the
    # unmeasured sender qubits and ``pairs`` holds the drawn members so far
    results, pairs = [], np.ones(1)
    for a, tl, readout in zip(a_labels, t_labels, readouts):
        pick, _, rows = _born_draw(readout @ rows.reshape(2, -1), bell, (a, tl), rng)
        label, member = members[pick]
        results.append(gates.EncodedBits(*label))
        pairs = np.kron(pairs, member.amplitudes)
    received = StateVector(rows, r_labels)

    # snapshot rows run over (A1, T1, .., AN, TN) and columns over the receivers
    order = [init.axis_of(q) for at in zip(a_labels, t_labels) for q in at]
    order += [init.axis_of(r) for r in r_labels]

    def snapshot(receivers: StateVector) -> StateVector:
        # the outer product is freed before the constructor copies the result
        return StateVector(_ungrouped(np.outer(pairs, receivers.amplitudes), order), init.labels)

    measured = snapshot(received)
    t.steps.append(("step2_bsm", measured))
    for r in r_labels:
        t.intercepts[("step2_bsm", (r,))] = partial_trace(received, (r,))

    # step 3: the classical result bits travel to their receivers
    t.steps.append(("step3_classical_send", measured))

    # step 4: joint unlock on the receiver register
    received = apply(received, _unlock(lock), r_labels)
    t.steps.append(("step4_unlock", snapshot(received)))

    # step 5: each receiver re-applies their own encoder
    for bits, r in zip(results, r_labels):
        received = apply(received, gates.pauli_encoder(bits), (r,))
    t.steps.append(("step5_correct", snapshot(received)))

    recovered = {r: partial_trace(received, (r,)) for r in r_labels}
    t.outcomes = {
        "results": {r: results[i] for i, r in enumerate(r_labels)},
        "fidelities": {
            r: fidelity(inp.payloads[i], recovered[r]) for i, r in enumerate(r_labels)
        },
        "recovered": recovered,
    }
    return t


# The per-digit tables of ``_corrected``, keyed by the encoders' entries.  The
# enumerator passes the four Pauli encoders alone, so there is one entry.
_DIGIT_TABLES: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def _digit_table(encoders) -> tuple[np.ndarray, np.ndarray]:
    """Each encoder as a source row and a sign row, derived once per set of encoders.

    Encoder ``d`` sends entry ``c`` of a receiver's two amplitudes to
    ``sign[d, c] * amplitude[src[d, c]]``.  Each encoder must be a signed
    permutation with +-1 entries, so the rows fit ``uint8`` and ``int8``.
    """
    key = b"".join(enc.tobytes() for enc in encoders)
    if key not in _DIGIT_TABLES:
        src = np.array([np.argmax(np.abs(enc), axis=1) for enc in encoders], dtype=np.uint8)
        picked = np.array([enc[np.arange(2), s] for enc, s in zip(encoders, src)])
        sign = picked.real.astype(np.int8)
        if not np.array_equal(picked, sign):
            raise ValueError("corrections must be signed permutations with +-1 entries")
        src.setflags(write=False)
        sign.setflags(write=False)
        _DIGIT_TABLES[key] = src, sign
    return _DIGIT_TABLES[key]


def _corrected(unlocked: np.ndarray, encoders) -> np.ndarray:
    """Every receiver's Pauli correction applied to the rows of ``unlocked``.

    Row ``b`` of the ``4^n x 2^n`` table is branch ``b``; receiver ``i``
    re-applies ``encoders[d]``, where ``d`` is base-4 digit ``i`` of ``b``
    (most significant first).  Each encoder is a signed permutation of the
    receiver's two amplitudes, so all ``n`` corrections together are one
    signed gather: entry ``(b, c)`` becomes ``sign[b, c] * unlocked[b, col[b, c]]``.
    The column and sign tables are expanded from the per-digit table on each
    call, as ``uint8`` and ``int8`` (256 KiB each at n = 6).
    """
    n = unlocked.shape[1].bit_length() - 1
    src, sign = _digit_table(encoders)
    cols = np.zeros((1, 1), dtype=np.uint8)
    signs = np.ones((1, 1), dtype=np.int8)
    for i in range(n):
        # prepend a receiver as the most significant digit and column bit, so
        # the long axes of the broadcast stay innermost
        shape = (4 ** (i + 1), 2 ** (i + 1))
        cols = ((src << i)[:, None, :, None] + cols[None, :, None, :]).reshape(shape)
        signs = (sign[:, None, :, None] * signs[None, :, None, :]).reshape(shape)
    # row b starts at flat offset b * 2^n
    corrected = unlocked.reshape(-1).take(cols + (np.arange(4**n)[:, None] << n))
    corrected *= signs
    return corrected


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
    state, so the table is built from the locked shared pairs alone: read as
    a ``2^N x 2^N`` matrix (sender rows, receiver columns), each sender row
    axis is mapped to its four outcomes by the 4x2 readout of pair ``i``
    folded with payload ``i``.  Row norms squared are the branch
    probabilities (each exactly ``4^-N``, since the sender halves are
    maximally mixed), the unlock is one matrix product on the normalised
    rows, the per-receiver corrections are one signed gather, and the
    fidelities act on all rows at once.  At most ``MAX_RECEIVERS`` receivers
    are accepted.
    """
    payloads = tuple(payloads)
    n = len(payloads)
    if n > MAX_RECEIVERS:
        raise ValueError(
            f"{n} receivers requested; the enumerator is capped at {MAX_RECEIVERS} receivers"
        )
    if lock.dim != 1 << n:
        raise ValueError(f"{n} receivers need a {1 << n}-dimensional lock")
    _, a_labels, r_labels = _teleport_labels(n, receiver_labels)

    bell = states.family("bell")
    outcomes = [gates.EncodedBits(*xy) for xy in bell.members]
    _, _, table, readouts = _shared_pairs(payloads, lock, a_labels, r_labels)
    # pair i maps each row's first sender axis to its four outcomes
    for i, readout in enumerate(readouts):
        table = np.matmul(readout, table.reshape(4**i, 2, -1)).reshape(-1, 1 << n)
    norms = np.linalg.norm(table, axis=1)
    table /= norms[:, None]

    corrected = _corrected(
        table @ _unlock(lock).entries.T,
        [gates.pauli_encoder(bits).entries for bits in outcomes],
    )
    fids = np.empty((4**n, n))
    for i, payload in enumerate(payloads):
        split = corrected.reshape(4**n, 2**i, 2, 2 ** (n - 1 - i))
        p0, p1 = payload.amplitudes.conj()
        overlap = p0 * split[:, :, 0] + p1 * split[:, :, 1]
        fids[:, i] = np.sum(np.abs(overlap) ** 2, axis=(1, 2))

    return [
        TeleportBranch(results, prob, pre, post, tuple(f))
        for results, prob, pre, post, f in zip(
            itertools.product(outcomes, repeat=n),
            (norms**2).tolist(),
            _state_rows(table, r_labels),
            _state_rows(corrected, r_labels),
            fids.tolist(),
        )
    ]


def enumerate_teleportation(inp: TeleportInput) -> list[TeleportBranch]:
    """Exhaustively enumerate the joint Bell branches of a named scheme."""
    r_labels, lock = _teleport_layout(inp.scheme, inp.n_receivers)
    return enumerate_teleportation_with_lock(inp.payloads, lock, r_labels)

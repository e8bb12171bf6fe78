"""Verification sweeps: is a joint unitary a valid channel lock?

A lock is *valid for dense coding* when, after the lock is applied and the
locked qubits are in transit, no receiver subsystem reveals anything about
any encoded bit: the intercepted reduced matrix is identical across all 16
encodings.  The sweeps here check that exhaustively, compare against the
known closed forms, and -- when a lock fails -- identify which bits leak
and whether they are recoverable with certainty (orthogonal supports) or
only partially (reported as "leaky", with the trace distance).

A lock is *valid for teleportation* when each receiver's pre-unlock view
(its reduced state given its own classical bits, averaged over the other
receivers' unknown results) carries no information about the payloads, and
the full scheme still recovers every payload after the joint unlock.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gates, states
from .measurement import _born_weights, resolve_rng, sample_projective, support_distinguisher
from .protocols import _require_lock, enumerate_teleportation_with_lock
from .qlinalg import ATOL, ATOL_STRICT, StateVector, Unitary, _grouped, _jsonable, to_wire

BIT_NAMES = ("b1", "b2", "c1", "c2")

_ENCODINGS = tuple(itertools.product((0, 1), repeat=4))

#: shots of the counterexample's support measurement per intercepted view
SUPPORT_SHOTS = 25


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Each channel's receiver isometry V: its members are the Bell members seen
# through I (x) V, ``(I (x) V) phi(x, y)``, up to the sign -1 on w(1, 1).
_PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
_RECEIVER_ISOMETRY = {
    "bell": _read_only(np.eye(2)),
    "ghz": _read_only(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])),
    "w": _read_only(np.column_stack([_PSI_PLUS, [1.0, 0.0, 0.0, 0.0]])),
}


def _v_image(v: np.ndarray) -> np.ndarray:
    """``(I (x) V)(I/4)(I (x) V)^H``: the V-image of the two-qubit fully mixed state."""
    iv = np.kron(np.eye(2), v)
    return _read_only(iv @ iv.T / 4.0)


_EXPECTED_VIEWS = {channel: _v_image(v) for channel, v in _RECEIVER_ISOMETRY.items()}


def _expected_view(channel: str) -> np.ndarray:
    """The closed-form intercepted view under the Fourier lock.

    Bell channel: the fully mixed state on two qubits.  The GHZ and W
    members are Bell members seen through a receiver isometry ``V``, so
    their views are the V-images of ``I/4``.  GHZ channel: an even mixture
    of |000>, |011>, |100>, |111>.  W channel: a rank-4 mixture that is
    encoding-independent but *not* maximally mixed (it is maximally mixed
    on its four-dimensional support).
    """
    try:
        return _EXPECTED_VIEWS[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}") from None


# Bob's intercepted (A1, B) view under the Hadamard--CNOT lock depends on
# his first message bit alone; these are the two conditional matrices.
LOCKED_VIEW_BOB = {
    0: np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 1.0],
        ]
    )
    / 4.0,
    1: np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    / 4.0,
}


@dataclass
class SubsystemReport:
    """What one receiver's subsystem reveals, over a full sweep."""

    independent_of_encoding: bool
    max_pairwise_diff: float
    matches_closed_form: bool | None = None
    maximally_mixed: bool | None = None
    recoverable_bits: list[str] = field(default_factory=list)
    leaky_bits: list[str] = field(default_factory=list)
    bit_evidence: dict = field(default_factory=dict)


@dataclass
class LockingReport:
    """Full verdict on a locking unitary for one task and channel."""

    protocol: str
    lock_used: str
    per_subsystem: dict
    end_to_end_correct: bool | None = None
    valid_lock: bool = False
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self) -> dict:
        return _jsonable(asdict(self), to_wire)


# The encodings' bits as a read-only (16, 4) array, in _ENCODINGS order.
_ENCODING_BITS = _read_only(np.array(_ENCODINGS))

# The 120 pairs of encodings, each once, as read-only ``np.triu_indices(16, 1)``.
_PAIRS = tuple(_read_only(idx) for idx in np.triu_indices(16, 1))

# Row i marks the pairs of encodings, in _PAIRS order, that agree on bit i.
_SAME_BIT = _read_only((_ENCODING_BITS[_PAIRS[0]] == _ENCODING_BITS[_PAIRS[1]]).T)

# Entry [i, v] lists the eight encodings whose bit i is v, in _ENCODINGS order.
_BIT_CLASSES = _read_only(
    np.array([[np.flatnonzero(_ENCODING_BITS[:, i] == v) for v in (0, 1)] for i in range(4)])
)


def _pair_diffs(stack: np.ndarray) -> np.ndarray:
    """Largest entrywise ``|a - b|`` of each pair ``a, b`` in a sweep's ``(16, d, d)`` stack.

    Pairs are taken once each, in ``_PAIRS`` order, since ``|a - b|`` and
    ``|b - a|`` are the same float.  All 120 differences come from one
    gather of both sides of every pair.
    """
    first, second = _PAIRS
    return np.abs(stack[second] - stack[first]).max(axis=(1, 2))


def _bit_averages(stack: np.ndarray) -> np.ndarray:
    """Average a sweep's ``(16, d, d)`` stack of views over each encoded bit.

    Entry ``[i, v]`` of the ``(4, 2, d, d)`` result is the mean of the eight
    views whose bit ``i`` is ``v``, gathered at once through ``_BIT_CLASSES``.
    The mean runs over an axis that is not the innermost, so numpy adds the
    eight views one after another, in ``_ENCODINGS`` order.
    """
    return stack[_BIT_CLASSES].mean(axis=2)


def _bit_scan(avg: np.ndarray, pair_diffs: np.ndarray) -> dict:
    """Per-bit leak analysis of a sweep's ``(16, d, d)`` stack of views.

    ``avg`` is the stack's :func:`_bit_averages`: for each encoded bit, the
    average of the views with the bit 0 and with the bit 1.  Orthogonal
    supports of the two averages (trace overlap ~ 0) mean the bit is
    recoverable with certainty by a support measurement; distinct but
    non-orthogonal averages mean partial information (leaky).  ``pair_diffs``
    is the stack's :func:`_pair_diffs`; a bit's within-class spread is its
    largest entry over the pairs that agree on the bit, all four in one
    masked maximum over ``_SAME_BIT``.
    """
    overlaps = np.trace(avg[:, 0] @ avg[:, 1], axis1=1, axis2=2).real
    distances = 0.5 * np.abs(np.linalg.eigvalsh(avg[:, 0] - avg[:, 1])).sum(axis=1)
    within = np.where(_SAME_BIT, pair_diffs, -np.inf).max(axis=1)
    return {
        bit: {
            "certain": overlap <= ATOL,
            "support_overlap": overlap,
            "avg_trace_distance": distance,
            "within_class_max_diff": diff,
        }
        for bit, overlap, distance, diff in zip(
            BIT_NAMES, overlaps.tolist(), distances.tolist(), within.tolist()
        )
    }


def _subsystem_report(
    stack: np.ndarray, avg: np.ndarray, closed_form: np.ndarray | None
) -> SubsystemReport:
    """What one receiver's ``(16, d, d)`` stack of views, in ``_ENCODINGS`` order, reveals,
    given its :func:`_bit_averages` ``avg`` and its ``closed_form`` view or None."""
    pair_diffs = _pair_diffs(stack)
    max_diff = float(pair_diffs.max())
    dim = stack.shape[-1]
    evidence = _bit_scan(avg, pair_diffs)
    revealed = [b for b in BIT_NAMES if evidence[b]["avg_trace_distance"] > ATOL]
    recoverable = [b for b in revealed if evidence[b]["certain"]]
    leaky = [b for b in revealed if not evidence[b]["certain"]]
    matches = None
    if closed_form is not None:
        matches = bool(np.abs(stack - closed_form).max() <= ATOL)
    return SubsystemReport(
        independent_of_encoding=max_diff < ATOL,
        max_pairwise_diff=max_diff,
        matches_closed_form=matches,
        maximally_mixed=bool(np.abs(stack - np.eye(dim) / dim).max() <= ATOL),
        recoverable_bits=recoverable,
        leaky_bits=leaky,
        bit_evidence=evidence,
    )


# Alice's operator for each encoding, pauli_encoder(b1 b2) (x) pauli_encoder(c1 c2),
# in _ENCODINGS order: np.kron of the four encoders as a (4, 1, 2, 2) and a
# (1, 4, 2, 2) stack is every pair's product, entry [i, j] E_i (x) E_j.  Each is a
# signed permutation, so a lock times one is exact.
_ENCODER_PRODUCTS = _read_only(
    np.kron(gates._ENCODER_STACK[:, None], gates._ENCODER_STACK[None, :]).reshape(16, 4, 4)
)

# Each receiver's message per encoding, (x, y) = (b1, b2) for Bob and (c1, c2)
# for Charlie, as its member's row 2x + y: a read-only (2, 16, 1) index into
# the receivers' (2, 16, 4) Born weights.
_SENT_ROWS = _read_only((2 * _ENCODING_BITS[:, 0::2] + _ENCODING_BITS[:, 1::2]).T[..., None])


def _stacked_sweep(channel: str, lock: Unitary):
    """All 16 encodings under ``lock`` at once, with no protocol run.

    Returns each receiver's ``(16, d, d)`` stack of intercepted views, in
    ``_ENCODINGS`` order, and whether every message decodes.  The initial
    state is a ``4 x R`` matrix ``g`` (rows ``A1 A2``, columns the
    receivers' qubits in ``DENSE_CHANNELS`` order), so every encoding's
    locked register is one ``(16, 4, R)`` product ``(U E) g``.  Grouped with
    a receiver's subsystem on the rows, as ``qlinalg.partial_trace`` groups
    it, the register ``psi`` gives the view ``psi psi^H``, which traces out
    the other sender qubit and the other receiver's qubits.  After the
    unlock ``gates.adjoint(lock)``, the conjugated family members times the
    same grouping are the receiver's four residuals, as ``qlinalg.contract``
    forms them, and each receiver's ``(16, 4, rest)`` stack of them goes
    through ``measurement._born_weights`` in one call: the span check the
    protocol's measurement makes.  A message decodes when its member's
    weight is at least ``1 - ATOL``: the outcome the protocol's draw then
    takes with certainty; one index reads every sent member's weight.

    The lock, the encodings and the unlock act on the sender qubits only,
    on which every family spans all of the space, so a receiver's weight
    outside the span is set by the initial state: up to rounding it is the
    same for all 16 encodings.  An out-of-span receiver is then short from
    the first encoding on, and checking Bob's whole stack before Charlie's
    names the first offender of the encoding-by-encoding order, Bob before
    Charlie.
    """
    state = states.initial_state(channel)
    layout = states.DENSE_CHANNELS[channel]
    fam = states.family(channel)
    g, _ = _grouped(state.amplitudes, (state.axis_of("A1"), state.axis_of("A2")))
    rb = 1 << (len(layout["bob"]) - 1)
    rc = g.shape[1] // rb

    def by_receiver(registers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each receiver's (16, own, rest) stack: rows over its subsystem (its
        # sender qubit, then its own qubits), columns over the other qubits
        t = registers.reshape(16, 2, 2, rb, rc)  # encoding, A1, A2, Bob's, Charlie's
        return (
            t.transpose(0, 1, 3, 2, 4).reshape(16, 2 * rb, 2 * rc),
            t.transpose(0, 2, 4, 1, 3).reshape(16, 2 * rc, 2 * rb),
        )

    locked = (lock.entries @ _ENCODER_PRODUCTS) @ g
    names = ["".join(layout[who]) for who in ("bob", "charlie")]
    views = {
        name: psi @ psi.conj().swapaxes(1, 2) for name, psi in zip(names, by_receiver(locked))
    }

    unlocked = by_receiver(gates.adjoint(lock).entries @ locked)
    bras = fam.bras.conj()
    weights = np.array(
        [_born_weights(bras @ psi, fam, targets) for psi, targets in zip(unlocked, layout.values())]
    )
    sent = np.take_along_axis(weights, _SENT_ROWS, axis=-1)
    return views, bool((sent >= 1.0 - ATOL).all())


def _judged(report: LockingReport) -> LockingReport:
    """Set a filled-in report's verdict and return it: the lock is valid when every
    message is recovered and no view depends on it; the report passes when every check does."""
    report.valid_lock = bool(report.end_to_end_correct) and all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.passed = all(report.checks.values())
    return report


def _dense_report(
    channel: str, stacks: dict, decode_ok: bool, lock_used: str, theorem: bool
) -> LockingReport:
    """Judge a lock as a dense coding lock from its sweep over all 16 encodings.

    ``stacks`` holds each receiver's ``(16, d, d)`` views.  A ``theorem``
    report also checks each view against its closed form and for leaked
    bits; without ``theorem`` the report passes exactly when the lock is valid.
    """
    report = LockingReport(
        protocol=f"dense_coding:{channel}",
        lock_used=lock_used,
        per_subsystem={
            name: _subsystem_report(v, _bit_averages(v), _expected_view(channel))
            for name, v in stacks.items()
        },
        end_to_end_correct=decode_ok,
    )
    for name, sub in report.per_subsystem.items():
        report.checks[f"encoding_independent:{name}"] = sub.independent_of_encoding
        if theorem:
            leaked = sub.recoverable_bits or sub.leaky_bits
            report.checks[f"closed_form:{name}"] = bool(sub.matches_closed_form)
            report.checks[f"no_bit_recoverable:{name}"] = not leaked
    report.checks["decode_correct"] = decode_ok
    if theorem:
        report.notes["maximally_mixed"] = {
            name: sub.maximally_mixed for name, sub in report.per_subsystem.items()
        }
    return _judged(report)


def verify_theorem(channel: str) -> LockingReport:
    """Verify the locked dense coding guarantee for one channel type.

    Sweeps all 16 encodings under the Fourier lock (see :func:`_stacked_sweep`)
    and checks that each receiver's intercepted view is encoding-independent
    and equal to its closed form, and that the receivers still decode every
    message exactly.  Encoding-independence is the security claim; maximal
    mixedness holds for the Bell channel only and is reported without being
    required.
    """
    stacks, decode_ok = _stacked_sweep(channel, gates.qft(2))
    return _dense_report(channel, stacks, decode_ok, "qft", theorem=True)


def verify_counterexample(seed=1789) -> LockingReport:
    """Show that the Hadamard--CNOT operator fails to lock dense coding.

    On the Bell channel, Bob's intercepted view depends on (exactly) his
    first bit, with the two conditional matrices orthogonal in support, so a
    support measurement reads the bit with certainty; by the same analysis
    Charlie's view depends on (exactly) his second bit.  Both leaks are
    established exhaustively, from the sweep over all 16 encodings (see
    :func:`_stacked_sweep`), and the distinguishing measurement is simulated:
    ``SUPPORT_SHOTS`` shots on each of the 32 intercepted views, each
    receiver's 16 views drawn in one call, from the one generator that
    ``seed`` gives.  The support projector comes from the same bit averages
    the receiver's report judged.
    """
    rng = resolve_rng(seed)
    stacks, decode_ok = _stacked_sweep("bell", gates.lock_operator())
    averages = {name: _bit_averages(v) for name, v in stacks.items()}
    report = LockingReport(
        protocol="dense_coding:bell",
        lock_used="ulock",
        per_subsystem={
            name: _subsystem_report(stacks[name], avg, None) for name, avg in averages.items()
        },
        end_to_end_correct=decode_ok,
    )
    discovered = {
        name: list(sub.recoverable_bits) for name, sub in report.per_subsystem.items()
    }
    report.notes["recoverable_bits"] = discovered
    report.checks["decode_correct"] = decode_ok
    report.checks["lock_rejected"] = not all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    bob, charlie = stacks
    report.checks["bob_view_reveals_exactly_b1"] = discovered[bob] == ["b1"]
    report.checks["charlie_view_reveals_exactly_c2"] = discovered[charlie] == ["c2"]

    # Bob's side: conditional views match their closed forms and are
    # invariant within each class (no dependence on b2, c1, c2).
    closed_forms = np.array([LOCKED_VIEW_BOB[0], LOCKED_VIEW_BOB[1]])[_ENCODING_BITS[:, 0]]
    report.checks["bob_conditional_closed_forms"] = bool(
        np.abs(stacks[bob] - closed_forms).max() <= ATOL
    )
    b1 = report.per_subsystem[bob].bit_evidence["b1"]
    report.checks["bob_view_invariant_in_other_bits"] = b1["within_class_max_diff"] < ATOL

    # The support measurement itself: each receiver's 16 views sampled at once, from one stream.
    accuracy = {}
    for name, bit_idx, bit in ((bob, 0, "b1"), (charlie, 3, "c2")):
        analysis = support_distinguisher(*averages[name][bit_idx])
        evidence = report.per_subsystem[name].bit_evidence[bit]
        strict = evidence["support_overlap_strict"] = analysis.overlap <= ATOL_STRICT
        inside = sample_projective(stacks[name], analysis.projector, SUPPORT_SHOTS, rng)
        # a shot inside the support reads the bit as 0, so it is right where it differs from the bit
        correct = np.count_nonzero(inside != _ENCODING_BITS[:, bit_idx, None])
        accuracy[bit] = evidence["measurement_accuracy"] = correct / inside.size
        report.checks[f"{bit}_support_overlap_below_strict_tol"] = strict
        report.checks[f"{bit}_measurement_accuracy_1"] = accuracy[bit] == 1.0
    report.notes["measurement_accuracy"] = accuracy
    return _judged(report)


# The six single-qubit stabilizer states whose Bloch vectors give the
# teleportation views.
_SQ2 = np.sqrt(2.0)
_PROBE_AMPLITUDES = (
    np.array([1.0, 0.0], dtype=complex),  # |0>
    np.array([0.0, 1.0], dtype=complex),  # |1>
    np.array([1.0, 1.0], dtype=complex) / _SQ2,  # |+>
    np.array([1.0, -1.0], dtype=complex) / _SQ2,  # |->
    np.array([1.0, 1.0j], dtype=complex) / _SQ2,  # |+i>
    np.array([1.0, -1.0j], dtype=complex) / _SQ2,  # |-i>
)

# The one payload pair a teleportation verdict runs end to end: |+> on p1 and
# |+i> on p2, Bloch vectors on different axes.
_PROBE_PAIR = (
    StateVector(_PROBE_AMPLITUDES[2], ("p1",)),
    StateVector(_PROBE_AMPLITUDES[4], ("p2",)),
)

# sigma_x, sigma_y = i sigma_x sigma_z and sigma_z; the probes' Bloch vectors <p|sigma_a|p>
_PAULIS = np.array([gates._SIGMA_X, 1j * gates._SIGMA_X @ gates._SIGMA_Z, gates._SIGMA_Z])
_PROBE_BLOCH = np.einsum(
    "pi,aij,pj->pa", np.conj(_PROBE_AMPLITUDES), _PAULIS, _PROBE_AMPLITUDES
).real


def _site_blocks(u: Unitary) -> np.ndarray:
    """Each qubit's site block ``B_i[a, b] = Re Tr(U^H sigma_a^(i) U sigma_b^(i)) / 2^n``.

    Returns an ``(n, 3, 3)`` array, ``a, b`` over ``x, y, z``.  With row and
    column qubit ``i`` moved to the front, ``U`` is a ``4 x 4^(n-1)`` matrix
    ``V``, and ``conj(V) V^T`` holds every inner product the blocks need.
    """
    n = u.n_qubits
    t = u.entries.reshape((2,) * (2 * n))
    blocks = np.empty((n, 3, 3))
    for i in range(n):
        v = np.moveaxis(t, (i, n + i), (0, 1)).reshape(4, -1)
        gram = (v.conj() @ v.T).reshape(2, 2, 2, 2)  # [row, col, row', col']
        blocks[i] = np.einsum("jkJK,ajJ,bKk->ab", gram, _PAULIS, _PAULIS).real / u.dim
    return blocks


def _largest_entry(bloch: np.ndarray) -> float:
    """Largest entry of ``|r . sigma| / 2`` over the Bloch vectors ``r`` in ``bloch``."""
    return float(np.maximum(abs(bloch[..., 2]), np.hypot(bloch[..., 0], bloch[..., 1])).max()) / 2


def _classify_teleportation(u: Unitary) -> LockingReport:
    """Probe a candidate two-receiver teleportation lock.

    The view of receiver ``i`` given its own digit is ``I/2 + (r . sigma)/2``,
    where ``r`` is ``s @ B_i`` (:func:`_site_blocks`) with signs set by the
    digit and ``s`` is its own payload's Bloch vector.  The six stabilizer
    states are closed under those signs, so ``s @ B_i`` over their Bloch
    vectors gives every view.  Whether the scheme still teleports is read
    from one enumeration of :data:`_PROBE_PAIR`: its lowest branch fidelity.
    One run decides it, because the unlock ``conj(U)`` undoes the transpose
    of any unitary lock ``U`` the receivers pick up (``conj(U) U^T = I``), so
    every payload pair is recovered or none is.
    """
    branches = enumerate_teleportation_with_lock(_PROBE_PAIR, u)
    min_fidelity = min(1.0, min(min(b.fidelities) for b in branches))

    report = LockingReport(
        protocol="teleportation:2 receivers",
        lock_used="custom",
        per_subsystem={},
        end_to_end_correct=bool(min_fidelity >= 1.0 - ATOL),
    )
    for r, block in zip(branches[0].receivers, _site_blocks(u)):
        bloch = _PROBE_BLOCH @ block
        worst = _largest_entry(bloch[:, None] - bloch[None, :])
        report.per_subsystem[r] = SubsystemReport(
            independent_of_encoding=worst < ATOL,
            max_pairwise_diff=worst,
            matches_closed_form=None,
            maximally_mixed=_largest_entry(bloch) <= ATOL,
        )
        report.checks[f"payload_independent:{r}"] = worst < ATOL
    report.checks["end_to_end_correct"] = report.end_to_end_correct
    report.notes["probe_set"] = (
        "views: the 6 single-qubit stabilizer states; end to end: |+> on p1, |+i> on p2"
    )
    report.notes["min_fidelity"] = float(min_fidelity)
    report.notes["unlock"] = "elementwise conjugate of the lock"
    return _judged(report)


def classify_locking_unitary(u: Unitary, task: str, channel: str = "bell") -> LockingReport:
    """Decide whether an arbitrary 4x4 unitary is a valid channel lock.

    ``task`` is ``dense_coding`` or ``teleportation``.  The verdict is
    invariant under a global phase of ``u``.  For dense coding the unlock is
    the adjoint of ``u``; the report carries per-subsystem independence, any
    recoverable or leaky bits, and end-to-end decode correctness.  A ``u``
    that is not a 4x4 ``Unitary`` raises ``ValueError``.
    """
    _require_lock(u, 2)
    if task == "dense_coding":
        stacks, decode_ok = _stacked_sweep(channel, u)
        return _dense_report(channel, stacks, decode_ok, "custom", theorem=False)
    if task == "teleportation":
        if channel != "bell":
            raise ValueError("teleportation locks are probed on shared Bell pairs only")
        return _classify_teleportation(u)
    raise ValueError(f"unknown task {task!r}; expected dense_coding or teleportation")

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
from .measurement import resolve_rng, sample_projective, support_distinguisher
from .protocols import enumerate_teleportation_with_lock, run_dense_coding_with_lock
from .qlinalg import ATOL, ATOL_STRICT, StateVector, Unitary, _jsonable

BIT_NAMES = ("b1", "b2", "c1", "c2")

_ENCODINGS = tuple(itertools.product((0, 1), repeat=4))

#: shots of the counterexample's support measurement per intercepted view
SUPPORT_SHOTS = 25


def _ket_outer(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    m[i, j] = 1.0
    return m


def _expected_view(channel: str) -> np.ndarray:
    """The closed-form intercepted view under the Fourier lock.

    Bell channel: the fully mixed state on two qubits.  GHZ channel: an even
    mixture of |000>, |011>, |100>, |111>.  W channel: a rank-4 mixture that
    is encoding-independent but *not* maximally mixed.
    """
    if channel == "bell":
        return np.eye(4) / 4.0
    if channel == "ghz":
        return (
            _ket_outer(8, 0, 0) + _ket_outer(8, 3, 3) + _ket_outer(8, 4, 4) + _ket_outer(8, 7, 7)
        ) / 4.0
    if channel == "w":
        m = (
            2.0 * _ket_outer(8, 0, 0)
            + _ket_outer(8, 1, 1)
            + _ket_outer(8, 1, 2)
            + _ket_outer(8, 2, 1)
            + _ket_outer(8, 2, 2)
            + 2.0 * _ket_outer(8, 4, 4)
            + _ket_outer(8, 5, 5)
            + _ket_outer(8, 5, 6)
            + _ket_outer(8, 6, 5)
            + _ket_outer(8, 6, 6)
        )
        return m / 8.0
    raise ValueError(f"unknown channel {channel!r}")


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
        return _jsonable(asdict(self))


def _max_pairwise_diff(mats) -> float:
    """Largest entrywise ``|a - b|`` over all pairs of ``mats`` (0.0 for fewer than two)."""
    stack = np.asarray(mats)
    if len(stack) < 2:
        return 0.0
    return float(np.abs(stack[:, None] - stack[None, :]).max())


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _bit_classes(views: dict, idx: int) -> tuple[dict, dict]:
    """Split a sweep's views by encoded bit ``idx``: the two classes and their averages."""
    group = {0: [], 1: []}
    for bits, rho in views.items():
        group[bits[idx]].append(rho.entries)
    return group, {v: np.mean(group[v], axis=0) for v in (0, 1)}


def _bit_scan(views: dict) -> dict:
    """Per-bit leak analysis of a sweep of intercepted views.

    For each encoded bit: average the views with the bit 0 and with the bit 1.
    Orthogonal supports of the two averages (trace overlap ~ 0) mean the bit
    is recoverable with certainty by a support measurement; distinct but
    non-orthogonal averages mean partial information (leaky).
    """
    evidence = {}
    for idx, bit in enumerate(BIT_NAMES):
        group, avg = _bit_classes(views, idx)
        overlap = float(np.real(np.trace(avg[0] @ avg[1])))
        evidence[bit] = {
            "certain": overlap <= ATOL,
            "support_overlap": overlap,
            "avg_trace_distance": _trace_distance(avg[0], avg[1]),
            "within_class_max_diff": max(
                _max_pairwise_diff(group[0]), _max_pairwise_diff(group[1])
            ),
        }
    return evidence


def _subsystem_report(views: dict, closed_form: np.ndarray | None) -> SubsystemReport:
    mats = [rho.entries for rho in views.values()]
    max_diff = _max_pairwise_diff(mats)
    dim = mats[0].shape[0]
    evidence = _bit_scan(views)
    revealed = [b for b in BIT_NAMES if evidence[b]["avg_trace_distance"] > ATOL]
    recoverable = [b for b in revealed if evidence[b]["certain"]]
    leaky = [b for b in revealed if not evidence[b]["certain"]]
    matches = None
    if closed_form is not None:
        matches = all(float(np.max(np.abs(m - closed_form))) <= ATOL for m in mats)
    return SubsystemReport(
        independent_of_encoding=max_diff < ATOL,
        max_pairwise_diff=max_diff,
        matches_closed_form=matches,
        maximally_mixed=all(
            float(np.max(np.abs(m - np.eye(dim) / dim))) <= ATOL for m in mats
        ),
        recoverable_bits=recoverable,
        leaky_bits=leaky,
        bit_evidence=evidence,
    )


def _dense_sweep(channel: str, lock: Unitary):
    """Run all 16 encodings; collect the intercepted views (each transcript's
    validated ``DensityMatrix``) and decode results."""
    subs = tuple(states.DENSE_CHANNELS[channel].values())
    views = {"".join(sub): {} for sub in subs}
    decode_ok = True
    for bits in _ENCODINGS:
        bob, charlie = bits[:2], bits[2:]
        t = run_dense_coding_with_lock(channel, bob, charlie, lock, seed=0)
        for sub in subs:
            views["".join(sub)][bits] = t.intercepts[("step2_lock_send", sub)]
        decode_ok = decode_ok and t.outcomes["bob"] == bob and t.outcomes["charlie"] == charlie
    return views, decode_ok


def _judged(report: LockingReport) -> LockingReport:
    """Set a filled-in report's verdict and return it: the lock is valid when every
    message is recovered and no view depends on it; the report passes when every check does."""
    report.valid_lock = bool(report.end_to_end_correct) and all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.passed = all(report.checks.values())
    return report


def _dense_report(channel: str, lock: Unitary, lock_used: str, theorem: bool) -> LockingReport:
    """Sweep all 16 encodings under ``lock`` and judge it as a dense coding lock.

    A ``theorem`` report also checks each view against its closed form and for
    leaked bits; without ``theorem`` the report passes exactly when the lock is valid.
    """
    views, decode_ok = _dense_sweep(channel, lock)
    report = LockingReport(
        protocol=f"dense_coding:{channel}",
        lock_used=lock_used,
        per_subsystem={
            name: _subsystem_report(v, _expected_view(channel)) for name, v in views.items()
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

    Sweeps all 16 encodings under the Fourier lock and checks that each
    receiver's intercepted view is encoding-independent and equal to its
    closed form, and that the receivers still decode every message exactly.
    Encoding-independence is the security claim; maximal mixedness holds for
    the Bell channel only and is reported without being required.
    """
    return _dense_report(channel, gates.qft(2), "qft", theorem=True)


def verify_counterexample(seed=1789) -> LockingReport:
    """Show that the Hadamard--CNOT operator fails to lock dense coding.

    On the Bell channel, Bob's intercepted view depends on (exactly) his
    first bit, with the two conditional matrices orthogonal in support, so a
    support measurement reads the bit with certainty; by the same analysis
    Charlie's view depends on (exactly) his second bit.  Both leaks are
    established by brute force over all 16 encodings, and the distinguishing
    measurement is actually simulated.
    """
    views, decode_ok = _dense_sweep("bell", gates.lock_operator())
    report = LockingReport(
        protocol="dense_coding:bell",
        lock_used="ulock",
        per_subsystem={name: _subsystem_report(v, None) for name, v in views.items()},
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
    layout = states.DENSE_CHANNELS["bell"]
    bob, charlie = ("".join(layout[who]) for who in ("bob", "charlie"))
    report.checks["bob_view_reveals_exactly_b1"] = discovered.get(bob) == ["b1"]
    report.checks["charlie_view_reveals_exactly_c2"] = discovered.get(charlie) == ["c2"]

    # Bob's side: conditional views match their closed forms and are
    # invariant within each class (no dependence on b2, c1, c2).
    report.checks["bob_conditional_closed_forms"] = all(
        float(np.max(np.abs(rho.entries - LOCKED_VIEW_BOB[bits[0]]))) <= ATOL
        for bits, rho in views[bob].items()
    )
    b1 = report.per_subsystem[bob].bit_evidence["b1"]
    report.checks["bob_view_invariant_in_other_bits"] = b1["within_class_max_diff"] < ATOL

    # The support measurement itself, simulated shot by shot.
    rng = resolve_rng(seed)
    accuracy = {}
    for sub, bit_idx, bit in ((layout["bob"], 0, "b1"), (layout["charlie"], 3, "c2")):
        name = "".join(sub)
        sub_views = views[name]
        _, avg = _bit_classes(sub_views, bit_idx)
        analysis = support_distinguisher(avg[0], avg[1])
        report.per_subsystem[name].bit_evidence[bit]["support_overlap_strict"] = (
            analysis.overlap <= ATOL_STRICT
        )
        correct = total = 0
        for bits, rho in sub_views.items():
            for _ in range(SUPPORT_SHOTS):
                inside = sample_projective(rho, analysis.projector, rng)
                predicted = 0 if inside else 1
                correct += predicted == bits[bit_idx]
                total += 1
        accuracy[bit] = correct / total
        report.per_subsystem[name].bit_evidence[bit]["measurement_accuracy"] = accuracy[bit]
        report.checks[f"{bit}_support_overlap_below_strict_tol"] = bool(
            analysis.overlap <= ATOL_STRICT
        )
        report.checks[f"{bit}_measurement_accuracy_1"] = accuracy[bit] == 1.0
    report.notes["measurement_accuracy"] = accuracy
    return _judged(report)


# The six single-qubit stabilizer states used as teleportation probes, built
# once on each payload qubit: _PROBES[i] holds them all on qubit p{i + 1}.
_SQ2 = np.sqrt(2.0)
_PROBE_AMPLITUDES = (
    np.array([1.0, 0.0], dtype=complex),  # |0>
    np.array([0.0, 1.0], dtype=complex),  # |1>
    np.array([1.0, 1.0], dtype=complex) / _SQ2,  # |+>
    np.array([1.0, -1.0], dtype=complex) / _SQ2,  # |->
    np.array([1.0, 1.0j], dtype=complex) / _SQ2,  # |+i>
    np.array([1.0, -1.0j], dtype=complex) / _SQ2,  # |-i>
)
_PROBES = tuple(
    tuple(StateVector(amps, (label,)) for amps in _PROBE_AMPLITUDES) for label in ("p1", "p2")
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

    Every branch of every ordered pair of stabilizer payloads is enumerated,
    and the lowest fidelity decides whether the scheme still teleports.  The
    view of receiver ``i`` given its own digit is ``I/2 + (r . sigma)/2``,
    where ``r`` is ``s @ B_i`` (:func:`_site_blocks`) with signs set by the
    digit and ``s`` is its own payload's Bloch vector.  The probes are closed
    under those signs, so ``s @ B_i`` over all probes gives every view.
    """
    fids = []
    for payloads in itertools.product(*_PROBES):
        branches = enumerate_teleportation_with_lock(payloads, u)
        fids.append([b.fidelities for b in branches])
    min_fidelity = min(1.0, float(np.min(fids)))

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
    report.notes["probe_set"] = "all ordered pairs of the 6 single-qubit stabilizer states"
    report.notes["min_fidelity"] = float(min_fidelity)
    report.notes["unlock"] = "elementwise conjugate of the lock"
    return _judged(report)


def classify_locking_unitary(u: Unitary, task: str, channel: str = "bell") -> LockingReport:
    """Decide whether an arbitrary 4x4 unitary is a valid channel lock.

    ``task`` is ``dense_coding`` or ``teleportation``.  The verdict is
    invariant under a global phase of ``u``.  For dense coding the unlock is
    the adjoint of ``u``; the report carries per-subsystem independence, any
    recoverable or leaky bits, and end-to-end decode correctness.
    """
    if u.dim != 4:
        raise ValueError(f"a channel lock acts on two sender qubits; got dim {u.dim}")
    if task == "dense_coding":
        return _dense_report(channel, u, "custom", theorem=False)
    if task == "teleportation":
        if channel != "bell":
            raise ValueError("teleportation locks are probed on shared Bell pairs only")
        return _classify_teleportation(u)
    raise ValueError(f"unknown task {task!r}; expected dense_coding or teleportation")

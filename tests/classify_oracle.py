"""Test-only references for the lock classifiers and the claim checks.

``simulq.analysis`` reads every dense coding view, the claim checks'
included, from one stacked sweep (``_stacked_sweep``).  The references here
run the protocol instead.  ``dense_views_per_run`` runs all 16 encodings
through ``run_dense_coding_with_lock`` (one full transcript with validated
snapshots per encoding) and keeps each intercepted view as a
``DensityMatrix``.  ``classify_dense_per_run`` builds the per-subsystem
report from those views one matrix at a time: without ``theorem`` it is the
dense coding classifier, with it and the Fourier lock it is
``verify_theorem``.

``classify_teleportation_per_branch`` is the classifier that
``simulq.analysis._classify_teleportation`` used before its views were
computed on stacked branch tables, and then from each receiver's site block
and one enumeration: it enumerates all 36 ordered pairs of its own six
stabilizer payloads, builds one ``partial_trace`` (a fully validated
``DensityMatrix``) per receiver, branch and payload pair, averages them in
Python, and compares the views pair by pair with ``max_pairwise_diff_loop``.
It is slow but follows the definition step by step, so the differential
tests compare the classifier against it.

``bit_averages_loop``, ``within_class_max_loop`` and ``born_weights_per_row``
are the loop forms that ``simulq.analysis`` ran before its dense sweep and
report worked on whole ``(16, ...)`` stacks: one ``moveaxis`` and ``mean``
per encoded bit, one boolean-mask maximum per bit, and one
``measurement._born_weights`` call per encoding and receiver.  The
differential tests require the stacked forms to give the same bits.

``counterexample_shot_by_shot`` is ``verify_counterexample`` from the 16
protocol runs, as it ran before each intercepted view's support-measurement
shots were drawn at once: its per-receiver reports are built as
``classify_dense_per_run`` builds them, and its measurement is 800 one-shot
calls (``sample_one_shot``, 25 per view), each of which recomputes
``tr(P rho)`` and draws one ``rng.random()``.
"""

from __future__ import annotations

import itertools

import numpy as np

from simulq import gates, states
from simulq.analysis import (
    _ENCODINGS,
    BIT_NAMES,
    LOCKED_VIEW_BOB,
    SUPPORT_SHOTS,
    LockingReport,
    SubsystemReport,
    _expected_view,
)
from simulq.measurement import _born_weights, resolve_rng, support_distinguisher
from simulq.protocols import enumerate_teleportation_with_lock, run_dense_coding_with_lock
from simulq.qlinalg import ATOL, ATOL_STRICT, StateVector, Unitary, partial_trace

# The six single-qubit stabilizer states |0>, |1>, |+>, |->, |+i>, |-i>,
# written out here rather than read from ``simulq.analysis``.
_STABILIZER_AMPLITUDES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (2**-0.5, 2**-0.5),
    (2**-0.5, -(2**-0.5)),
    (2**-0.5, 1j * 2**-0.5),
    (2**-0.5, -1j * 2**-0.5),
)
# each state on each payload qubit: _PROBES[i] holds all six on qubit p{i + 1}
_PROBES = tuple(
    tuple(StateVector(np.array(amps, dtype=complex), (label,)) for amps in _STABILIZER_AMPLITUDES)
    for label in ("p1", "p2")
)


def max_pairwise_diff_loop(mats) -> float:
    """The pairwise loop whose maximum ``analysis._pair_diffs`` must reproduce."""
    mats = list(mats)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.max(np.abs(mats[i] - mats[j]))))
    return worst


def bit_averages_loop(stack: np.ndarray) -> np.ndarray:
    """``analysis._bit_averages`` one bit at a time: the ``(16, d, d)`` stack
    reshaped to one axis per bit, each bit's axis moved to the front and the
    other eight views averaged."""
    d = stack.shape[-1]
    per_bit = stack.reshape(2, 2, 2, 2, d, d)
    return np.array(
        [np.moveaxis(per_bit, i, 0).reshape(2, 8, d, d).mean(axis=1) for i in range(4)]
    )


def within_class_max_loop(pair_diffs: np.ndarray, same_bit: np.ndarray) -> list[float]:
    """Each bit's within-class spread: the largest pair difference under that bit's mask."""
    return [float(pair_diffs[same].max()) for same in same_bit]


def born_weights_per_row(residuals, family, targets) -> np.ndarray:
    """The receivers' ``(2, 16, 4)`` Born weights, one ``_born_weights`` call per row.

    ``residuals`` and ``targets`` hold Bob's then Charlie's ``(16, 4, m)``
    residual stack and measured qubits.  The calls run encoding by encoding,
    Bob before Charlie, so a state outside the span raises for the first
    offender in that order.
    """
    weights = [
        [_born_weights(rows[k], family, t) for rows, t in zip(residuals, targets)]
        for k in range(len(residuals[0]))
    ]
    return np.array(weights).swapaxes(0, 1)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _bit_classes(views: dict, idx: int) -> tuple[dict, dict]:
    """Split a sweep's views by encoded bit ``idx``: the two classes and their averages."""
    group = {0: [], 1: []}
    for bits, rho in views.items():
        group[bits[idx]].append(rho.entries)
    return group, {v: np.mean(group[v], axis=0) for v in (0, 1)}


def _bit_scan(views: dict) -> dict:
    """Per-bit leak evidence: class averages, their overlap and trace distance."""
    evidence = {}
    for idx, bit in enumerate(BIT_NAMES):
        group, avg = _bit_classes(views, idx)
        overlap = float(np.real(np.trace(avg[0] @ avg[1])))
        evidence[bit] = {
            "certain": overlap <= ATOL,
            "support_overlap": overlap,
            "avg_trace_distance": _trace_distance(avg[0], avg[1]),
            "within_class_max_diff": max(
                max_pairwise_diff_loop(group[0]), max_pairwise_diff_loop(group[1])
            ),
        }
    return evidence


def _subsystem_report(views: dict, closed_form: np.ndarray | None) -> SubsystemReport:
    mats = [rho.entries for rho in views.values()]
    max_diff = max_pairwise_diff_loop(mats)
    dim = mats[0].shape[0]
    evidence = _bit_scan(views)
    revealed = [b for b in BIT_NAMES if evidence[b]["avg_trace_distance"] > ATOL]
    return SubsystemReport(
        independent_of_encoding=max_diff < ATOL,
        max_pairwise_diff=max_diff,
        matches_closed_form=None
        if closed_form is None
        else all(float(np.max(np.abs(m - closed_form))) <= ATOL for m in mats),
        maximally_mixed=all(
            float(np.max(np.abs(m - np.eye(dim) / dim))) <= ATOL for m in mats
        ),
        recoverable_bits=[b for b in revealed if evidence[b]["certain"]],
        leaky_bits=[b for b in revealed if not evidence[b]["certain"]],
        bit_evidence=evidence,
    )


def dense_views_per_run(channel: str, lock: Unitary):
    """Each receiver's 16 intercepted views, keyed by encoding, and whether all messages decoded."""
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


def classify_dense_per_run(
    u: Unitary, channel: str = "bell", theorem: bool = False, lock_used: str = "custom"
) -> LockingReport:
    """Judge ``u`` as a dense coding lock from 16 protocol runs, one matrix at a time.

    Without ``theorem`` this is ``classify_locking_unitary(u, "dense_coding",
    channel)``; with it, and the Fourier lock, it is ``verify_theorem(channel)``.
    """
    views, decode_ok = dense_views_per_run(channel, u)
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
    report.valid_lock = decode_ok and all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.passed = all(report.checks.values())
    return report


def sample_one_shot(rho, projector: np.ndarray, rng) -> bool:
    """One shot of ``{P, I - P}`` on ``rho``: ``tr(P rho)`` clamped to ``[0, 1]``, then one
    ``rng.random()``."""
    p = float((projector @ rho.entries).trace().real)
    return bool(rng.random() < min(max(p, 0.0), 1.0))


def counterexample_shot_by_shot(seed) -> LockingReport:
    """``verify_counterexample(seed)`` from 16 protocol runs, one matrix and one shot at a time."""
    views, decode_ok = dense_views_per_run("bell", gates.lock_operator())
    bob, charlie = views
    report = LockingReport(
        protocol="dense_coding:bell",
        lock_used="ulock",
        per_subsystem={name: _subsystem_report(v, None) for name, v in views.items()},
        end_to_end_correct=decode_ok,
    )
    discovered = {name: list(sub.recoverable_bits) for name, sub in report.per_subsystem.items()}
    report.notes["recoverable_bits"] = discovered
    report.checks["decode_correct"] = decode_ok
    report.checks["lock_rejected"] = not all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.checks["bob_view_reveals_exactly_b1"] = discovered[bob] == ["b1"]
    report.checks["charlie_view_reveals_exactly_c2"] = discovered[charlie] == ["c2"]
    report.checks["bob_conditional_closed_forms"] = all(
        float(np.max(np.abs(rho.entries - LOCKED_VIEW_BOB[bits[0]]))) <= ATOL
        for bits, rho in views[bob].items()
    )
    b1 = report.per_subsystem[bob].bit_evidence["b1"]
    report.checks["bob_view_invariant_in_other_bits"] = b1["within_class_max_diff"] < ATOL

    rng = resolve_rng(seed)
    accuracy = {}
    for name, idx, bit in ((bob, 0, "b1"), (charlie, 3, "c2")):
        _, avg = _bit_classes(views[name], idx)
        analysis = support_distinguisher(avg[0], avg[1])
        evidence = report.per_subsystem[name].bit_evidence[bit]
        evidence["support_overlap_strict"] = analysis.overlap <= ATOL_STRICT
        correct = total = 0
        for bits, rho in views[name].items():
            for _ in range(SUPPORT_SHOTS):
                predicted = 0 if sample_one_shot(rho, analysis.projector, rng) else 1
                correct += predicted == bits[idx]
                total += 1
        accuracy[bit] = evidence["measurement_accuracy"] = correct / total
        report.checks[f"{bit}_support_overlap_below_strict_tol"] = bool(
            analysis.overlap <= ATOL_STRICT
        )
        report.checks[f"{bit}_measurement_accuracy_1"] = accuracy[bit] == 1.0
    report.notes["measurement_accuracy"] = accuracy
    report.valid_lock = decode_ok and all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.passed = all(report.checks.values())
    return report


def classify_teleportation_per_branch(u: Unitary) -> LockingReport:
    """Probe a candidate two-receiver teleportation lock.

    For every ordered pair of stabilizer payloads, every branch is
    enumerated (the receivers unlock as the enumerator does); receiver views
    are conditioned on the receiver's own result bits and averaged over the
    other receiver's, since only the former are sent to him before the
    unlock.
    """
    # views[receiver][own result bits] -> list over payload pairs
    views = {}
    min_fidelity = 1.0
    for payloads in itertools.product(*_PROBES):
        branches = enumerate_teleportation_with_lock(payloads, u)
        min_fidelity = min(min_fidelity, min(min(b.fidelities) for b in branches))
        for i, r in enumerate(branches[0].pre_unlock_state.labels):
            by_own = {}
            for br in branches:
                rho = partial_trace(br.pre_unlock_state, (r,)).entries
                entry = by_own.setdefault(br.results[i], [0.0, np.zeros_like(rho)])
                entry[0] += br.probability
                entry[1] = entry[1] + br.probability * rho
            for own, (weight, total) in by_own.items():
                views.setdefault(r, {}).setdefault(own, []).append(total / weight)

    report = LockingReport(
        protocol="teleportation:2 receivers",
        lock_used="custom",
        per_subsystem={},
        end_to_end_correct=bool(min_fidelity >= 1.0 - ATOL),
    )
    for r, by_own in views.items():
        worst = max(max_pairwise_diff_loop(mats) for mats in by_own.values())
        all_views = [m for mats in by_own.values() for m in mats]
        report.per_subsystem[r] = SubsystemReport(
            independent_of_encoding=worst < ATOL,
            max_pairwise_diff=worst,
            matches_closed_form=None,
            maximally_mixed=all(
                float(np.max(np.abs(m - np.eye(2) / 2.0))) <= ATOL for m in all_views
            ),
        )
        report.checks[f"payload_independent:{r}"] = worst < ATOL
    report.checks["end_to_end_correct"] = report.end_to_end_correct
    report.notes["probe_set"] = "all ordered pairs of the 6 single-qubit stabilizer states"
    report.notes["min_fidelity"] = float(min_fidelity)
    report.notes["unlock"] = "elementwise conjugate of the lock"
    report.valid_lock = report.end_to_end_correct and all(
        s.independent_of_encoding for s in report.per_subsystem.values()
    )
    report.passed = report.valid_lock
    return report

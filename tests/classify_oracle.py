"""Test-only reference for the teleportation lock classifier.

``classify_teleportation_per_branch`` is the classifier that
``simulq.analysis._classify_teleportation`` used before its views were
computed on stacked branch tables, and then from each receiver's site block:
it builds one ``partial_trace`` (a fully validated ``DensityMatrix``) per
receiver, branch and payload pair, averages them in Python, and compares the
views pair by pair with ``max_pairwise_diff_loop``.  It is slow but follows
the definition step by step, so the differential tests compare the
classifier against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from simulq.analysis import _PROBES, LockingReport, SubsystemReport
from simulq.protocols import enumerate_teleportation_with_lock
from simulq.qlinalg import ATOL, Unitary, partial_trace


def max_pairwise_diff_loop(mats) -> float:
    """The pairwise loop that ``analysis._max_pairwise_diff`` replaced."""
    mats = list(mats)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.max(np.abs(mats[i] - mats[j]))))
    return worst


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

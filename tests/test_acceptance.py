"""Acceptance gate: the nine headline guarantees, one PASS/FAIL line each.

Every criterion is exhaustive at desk scale -- full 16-encoding sweeps,
full branch enumerations -- with tolerances pinned next to each assertion:
1e-10 for closed forms and fidelities, 1e-12 for algebraic identities,
bitwise equality where the construction is exact.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import numpy as np

from simulq import gates, states
from simulq.analysis import verify_counterexample
from simulq.measurement import enumerate_branches
from simulq.protocols import (
    TeleportInput,
    enumerate_teleportation,
    run_dense_coding_with_lock,
    run_teleportation,
)
from simulq.qlinalg import StateVector, apply, equal_up_to_global_phase, tensor

ALL_ENCODINGS = list(itertools.product((0, 1), repeat=4))

RECEIVER_SUBSYSTEMS = {
    "bell": (("A1", "B"), ("A2", "C")),
    "ghz": (("A1", "B1", "B2"), ("A2", "C1", "C2")),
    "w": (("A1", "B1", "B2"), ("A2", "C1", "C2")),
}

# One line per criterion; echoed after the run by the terminal-summary hook
# in conftest.py so the verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _intercepted_views(channel: str, lock_name: str):
    lock = gates.qft(2) if lock_name == "qft" else gates.lock_operator()
    views = []
    for bits in ALL_ENCODINGS:
        t = run_dense_coding_with_lock(
            channel, bits[:2], bits[2:], lock, lock_name=lock_name, seed=0
        )
        views.append(
            (
                bits,
                tuple(
                    t.intercepts[("step2_lock_send", sub)].entries
                    for sub in RECEIVER_SUBSYSTEMS[channel]
                ),
            )
        )
    return views


def _random_payloads(rng, n):
    out = []
    for i in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append(StateVector(v / np.linalg.norm(v), (f"t{i}",)))
    return tuple(out)


def test_criterion_1_bell_intercepts_are_maximally_mixed():
    worst = 0.0
    for _, (rho_b, rho_c) in _intercepted_views("bell", "qft"):
        worst = max(
            worst,
            float(np.max(np.abs(rho_b - np.eye(4) / 4))),
            float(np.max(np.abs(rho_c - np.eye(4) / 4))),
        )
    _report(1, worst <= 1e-10, f"16 encodings, both receivers; max |dev from I/4| = {worst:.2e}")


def test_criterion_2_ghz_intercepts_match_closed_form():
    expected = np.zeros((8, 8))
    for k in (0, 3, 4, 7):  # |000>, |011>, |100>, |111>
        expected[k, k] = 0.25
    worst = 0.0
    for _, pair in _intercepted_views("ghz", "qft"):
        for rho in pair:
            worst = max(worst, float(np.max(np.abs(rho - expected))))
    _report(2, worst <= 1e-10, f"16 encodings, both receivers; max closed-form dev = {worst:.2e}")


def test_criterion_3_w_intercepts_match_closed_form():
    expected = np.zeros((8, 8))
    for i, j, v in [
        (0, 0, 2), (1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1),
        (4, 4, 2), (5, 5, 1), (5, 6, 1), (6, 5, 1), (6, 6, 1),
    ]:
        expected[i, j] = v / 8.0
    worst = 0.0
    for _, pair in _intercepted_views("w", "qft"):
        for rho in pair:
            worst = max(worst, float(np.max(np.abs(rho - expected))))
    _report(3, worst <= 1e-10, f"10-term form, 16 encodings, both receivers; max dev = {worst:.2e}")


def test_criterion_4_dense_coding_decodes_exactly():
    # enumeration: after the unlock, the joint measurement has exactly one
    # branch, carrying the encoded bits with probability 1
    enumeration_ok = True
    for channel in ("bell", "ghz", "w"):
        fam = states.family(channel)
        bob_sub, charlie_sub = RECEIVER_SUBSYSTEMS[channel]
        for bits in ALL_ENCODINGS:
            t = run_dense_coding_with_lock(
                channel, bits[:2], bits[2:], gates.qft(2), lock_name="qft", seed=0
            )
            unlocked = t.step_state("step3_unlock")
            bob_branches = enumerate_branches(unlocked, fam, bob_sub)
            one_branch = len(bob_branches) == 1
            bob = bob_branches[0]
            charlie_branches = enumerate_branches(bob.post_state, fam, charlie_sub)
            one_branch = one_branch and len(charlie_branches) == 1
            charlie = charlie_branches[0]
            enumeration_ok = enumeration_ok and (
                one_branch
                and bob.label == bits[:2]
                and charlie.label == bits[2:]
                and abs(bob.probability - 1.0) <= 1e-10
                and abs(charlie.probability - 1.0) <= 1e-10
            )
    # sampling: 100 seeded runs across channels and messages all decode
    sampled_ok = 0
    for i in range(100):
        channel = ("bell", "ghz", "w")[i % 3]
        bits = ALL_ENCODINGS[i % 16]
        t = run_dense_coding_with_lock(
            channel, bits[:2], bits[2:], gates.qft(2), lock_name="qft", seed=i
        )
        sampled_ok += t.outcomes["bob"] == bits[:2] and t.outcomes["charlie"] == bits[2:]
    _report(
        4,
        enumeration_ok and sampled_ok == 100,
        f"enumeration single branch p=1 (tol 1e-10) on 3x16 cases; {sampled_ok}/100 sampled runs decoded",
    )


def test_criterion_5_hadamard_cnot_lock_leaks_bobs_first_bit():
    rho_b0 = np.array(
        [[1, 0, 1, 0], [0, 1, 0, -1], [1, 0, 1, 0], [0, -1, 0, 1]]
    ) / 4.0
    rho_b1 = np.array(
        [[1, 0, -1, 0], [0, 1, 0, 1], [-1, 0, 1, 0], [0, 1, 0, 1]]
    ) / 4.0
    views = {
        bits: pair[0] for bits, pair in _intercepted_views("bell", "ulock")
    }
    form_dev = max(
        float(np.max(np.abs(v - (rho_b0 if bits[0] == 0 else rho_b1))))
        for bits, v in views.items()
    )
    invariance_dev = max(
        float(np.max(np.abs(views[a] - views[b])))
        for a in ALL_ENCODINGS
        for b in ALL_ENCODINGS
        if a[0] == b[0]
    )
    overlap = abs(float(np.real(np.trace(rho_b0 @ rho_b1))))
    report = verify_counterexample(seed=20240817)
    accuracy = report.notes["measurement_accuracy"]["b1"]
    ok = (
        form_dev <= 1e-10
        and invariance_dev <= 1e-10
        and overlap <= 1e-12
        and accuracy == 1.0
    )
    _report(
        5,
        ok,
        f"closed-form dev {form_dev:.2e} (tol 1e-10), invariance dev {invariance_dev:.2e},"
        f" tr(rho'0 rho'1) = {overlap:.1e} (tol 1e-12), measured-bit accuracy {accuracy}",
    )


def test_criterion_6_two_receiver_teleportation_with_hadamard_cnot_lock():
    rng = np.random.default_rng(60)
    worst = 1.0
    for _ in range(10):
        payloads = _random_payloads(rng, 2)
        branches = enumerate_teleportation(TeleportInput("ulock2", payloads, 2))
        assert len(branches) == 16
        worst = min(worst, min(min(br.fidelities) for br in branches))
    _report(
        6,
        worst >= 1.0 - 1e-10,
        f"16 branches x 10 payload pairs; min fidelity {worst:.15f} (tol 1e-10)",
    )


def test_criterion_7_fourier_teleportation_up_to_four_receivers():
    start = time.monotonic()
    rng = np.random.default_rng(70)
    worst = 1.0
    # full enumeration for 1 and 2 receivers
    for n in (1, 2):
        payloads = _random_payloads(rng, n)
        branches = enumerate_teleportation(TeleportInput("qftN", payloads, n))
        assert len(branches) == 4**n
        worst = min(worst, min(min(br.fidelities) for br in branches))
    # 50 sampled branches each for 3 and 4 receivers
    for n in (3, 4):
        payloads = _random_payloads(rng, n)
        for seed in range(50):
            t = run_teleportation(TeleportInput("qftN", payloads, n), seed=seed)
            worst = min(worst, min(t.outcomes["fidelities"].values()))
    # intermediate form for n=2: the collapsed receiver register is the
    # Fourier transform of the encoded payloads, up to a global phase
    payloads = _random_payloads(rng, 2)
    form_ok = True
    for br in enumerate_teleportation(TeleportInput("qftN", payloads, 2)):
        enc = tensor(
            StateVector(
                gates.pauli_encoder(br.results[0]).entries @ payloads[0].amplitudes, ("B1",)
            ),
            StateVector(
                gates.pauli_encoder(br.results[1]).entries @ payloads[1].amplitudes, ("B2",)
            ),
        )
        expected = apply(enc, gates.qft(2), ("B1", "B2"))
        form_ok = form_ok and equal_up_to_global_phase(br.pre_unlock_state, expected)
    elapsed = time.monotonic() - start
    ok = worst >= 1.0 - 1e-10 and form_ok and elapsed < 10.0
    _report(
        7,
        ok,
        f"n=1..4, min fidelity {worst:.15f} (tol 1e-10), n=2 intermediate form"
        f" {'ok' if form_ok else 'MISMATCH'}, {elapsed:.2f}s",
    )


def test_criterion_8_algebraic_suite():
    unitarity_dev = max(
        float(np.max(np.abs(gates.qft(n).entries.conj().T @ gates.qft(n).entries - np.eye(1 << n))))
        for n in range(1, 7)
    )
    qft2_literal = 0.5 * np.array(
        [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
    )
    qft2_exact = np.array_equal(gates.qft(2).entries, qft2_literal)
    lock_exact = np.array_equal(
        gates.lock_operator().entries,
        np.kron(gates.hadamard().entries, np.eye(2)) @ gates.cnot().entries,
    )
    gram_dev = 0.0
    for name in ("bell", "ghz", "w"):
        members = [m.amplitudes for m in states.family(name).members.values()]
        gram = np.array([[a.conj() @ b for b in members] for a in members])
        gram_dev = max(gram_dev, float(np.max(np.abs(gram - np.eye(4)))))
    ok = unitarity_dev <= 1e-12 and qft2_exact and lock_exact and gram_dev <= 1e-12
    _report(
        8,
        ok,
        f"unitarity n=1..6 dev {unitarity_dev:.1e} (tol 1e-12), 2-qubit transform exact:"
        f" {qft2_exact}, lock = (HxI)CNOT exact: {lock_exact}, Gram dev {gram_dev:.1e} (tol 1e-12)",
    )


def test_criterion_9_identical_seeds_are_byte_identical():
    def dense_blob() -> str:
        t = run_dense_coding_with_lock("w", (1, 0), (1, 1), gates.qft(2), lock_name="qft", seed=31)
        return json.dumps(t.to_dict(include_snapshots=True), sort_keys=True)

    def teleport_blob() -> str:
        rng = np.random.default_rng(90)
        t = run_teleportation(TeleportInput("qftN", _random_payloads(rng, 3), 3), seed=13)
        return json.dumps(t.to_dict(include_snapshots=True), sort_keys=True)

    def verify_blob() -> str:
        return json.dumps(verify_counterexample(seed=5).to_dict(), sort_keys=True)

    ok = (
        dense_blob() == dense_blob()
        and teleport_blob() == teleport_blob()
        and verify_blob() == verify_blob()
    )
    _report(9, ok, "dense, teleportation and verification reports repeated byte-for-byte")

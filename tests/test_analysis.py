"""Verification sweeps and the lock classifier."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulq import analysis, gates
from simulq.analysis import (
    _max_pairwise_diff,
    classify_locking_unitary,
    verify_counterexample,
    verify_theorem,
)
from simulq.qlinalg import Unitary
from tests.classify_oracle import classify_teleportation_per_branch, max_pairwise_diff_loop
from tests.conftest import random_unitary


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
def test_theorem_passes(channel):
    report = verify_theorem(channel)
    assert report.passed, report.checks
    assert report.valid_lock
    assert report.end_to_end_correct
    for sub in report.per_subsystem.values():
        assert sub.independent_of_encoding
        assert sub.matches_closed_form
        assert not sub.recoverable_bits
        assert not sub.leaky_bits


def test_theorem_mixedness_flags():
    # only the Bell channel's intercepted views are maximally mixed; the
    # three-qubit views are encoding-independent without being I/8
    assert verify_theorem("bell").notes["maximally_mixed"] == {"A1B": True, "A2C": True}
    assert verify_theorem("ghz").notes["maximally_mixed"] == {
        "A1B1B2": False,
        "A2C1C2": False,
    }
    assert verify_theorem("w").notes["maximally_mixed"] == {
        "A1B1B2": False,
        "A2C1C2": False,
    }


def test_theorem_report_serializes():
    data = verify_theorem("bell").to_dict()
    assert data["passed"] is True
    assert set(data["per_subsystem"]) == {"A1B", "A2C"}


class TestCounterexample:
    def test_all_checks_pass(self):
        report = verify_counterexample()
        assert report.passed, {k: v for k, v in report.checks.items() if not v}
        # the report's keys, in order, as they reach the JSON output
        assert list(report.checks) == [
            "decode_correct",
            "lock_rejected",
            "bob_view_reveals_exactly_b1",
            "charlie_view_reveals_exactly_c2",
            "bob_conditional_closed_forms",
            "bob_view_invariant_in_other_bits",
            "b1_support_overlap_below_strict_tol",
            "b1_measurement_accuracy_1",
            "c2_support_overlap_below_strict_tol",
            "c2_measurement_accuracy_1",
        ]
        data = json.loads(json.dumps(report.to_dict()))
        assert list(data) == [
            "protocol",
            "lock_used",
            "per_subsystem",
            "end_to_end_correct",
            "valid_lock",
            "checks",
            "notes",
            "passed",
        ]
        assert data["checks"] == dict.fromkeys(report.checks, True)
        assert list(data["per_subsystem"]) == ["A1B", "A2C"]
        assert list(data["notes"]) == ["recoverable_bits", "measurement_accuracy"]
        evidence = {name: sub["bit_evidence"] for name, sub in data["per_subsystem"].items()}
        assert list(evidence["A1B"]) == list(analysis.BIT_NAMES)
        assert "measurement_accuracy" in evidence["A1B"]["b1"]
        assert "measurement_accuracy" in evidence["A2C"]["c2"]

    def test_leak_is_exactly_one_bit_per_receiver(self):
        report = verify_counterexample()
        assert report.notes["recoverable_bits"] == {"A1B": ["b1"], "A2C": ["c2"]}
        assert not report.valid_lock
        assert report.end_to_end_correct  # decoding still works end to end

    def test_support_measurement_is_perfect(self):
        report = verify_counterexample(seed=7, shots=10)
        assert report.notes["measurement_accuracy"] == {"b1": 1.0, "c2": 1.0}

    def test_bob_evidence_details(self):
        report = verify_counterexample()
        ev = report.per_subsystem["A1B"].bit_evidence
        assert ev["b1"]["certain"]
        assert ev["b1"]["support_overlap"] <= 1e-12
        assert ev["b1"]["within_class_max_diff"] < 1e-10
        # the other three bits leave no trace at all
        for bit in ("b2", "c1", "c2"):
            assert ev[bit]["avg_trace_distance"] < 1e-10

    def test_sampled_views_live_on_the_channel_subsystems(self, monkeypatch):
        seen = set()
        sample = analysis.sample_projective

        def spy(rho, projector, rng):
            seen.add(rho.labels)
            return sample(rho, projector, rng)

        monkeypatch.setattr(analysis, "sample_projective", spy)
        verify_counterexample(seed=3, shots=1)
        assert seen == {("A1", "B"), ("A2", "C")}


class TestClassifierDenseCoding:
    def test_fourier_lock_is_valid(self):
        report = classify_locking_unitary(gates.qft(2), "dense_coding")
        assert report.valid_lock
        assert report.passed

    def test_hadamard_cnot_lock_is_invalid_but_decodes(self):
        report = classify_locking_unitary(gates.lock_operator(), "dense_coding")
        assert not report.valid_lock
        assert report.end_to_end_correct
        assert report.per_subsystem["A1B"].recoverable_bits == ["b1"]
        assert report.per_subsystem["A2C"].recoverable_bits == ["c2"]

    def test_identity_lock_is_invalid(self):
        report = classify_locking_unitary(gates.identity(2), "dense_coding")
        assert not report.valid_lock
        # with no lock at all, each receiver reads both of his bits
        assert report.per_subsystem["A1B"].recoverable_bits == ["b1", "b2"]

    def test_verdict_ignores_global_phase(self):
        phased = Unitary(np.exp(1.23j) * gates.qft(2).entries)
        assert classify_locking_unitary(phased, "dense_coding").valid_lock

    @pytest.mark.parametrize("channel", ["ghz", "w"])
    def test_other_channels(self, channel):
        report = classify_locking_unitary(gates.qft(2), "dense_coding", channel=channel)
        assert report.valid_lock

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            classify_locking_unitary(gates.hadamard(), "dense_coding")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            classify_locking_unitary(gates.qft(2), "uncloning")


class TestClassifierTeleportation:
    def test_fourier_lock_is_valid(self):
        report = classify_locking_unitary(gates.qft(2), "teleportation")
        assert report.valid_lock
        assert report.notes["min_fidelity"] == pytest.approx(1.0, abs=1e-10)
        # each receiver's pre-unlock view is I/2 for every payload choice
        for sub in report.per_subsystem.values():
            assert sub.independent_of_encoding
            assert sub.maximally_mixed

    def test_hadamard_cnot_lock_leaks_payload_information(self):
        # end-to-end teleportation still works (the two-receiver scheme is
        # correct), but receivers' pre-unlock views depend on the payloads,
        # so the operator fails as an information lock
        report = classify_locking_unitary(gates.lock_operator(), "teleportation")
        assert report.end_to_end_correct
        assert not report.valid_lock
        assert not report.per_subsystem["B"].independent_of_encoding
        assert not report.per_subsystem["C"].independent_of_encoding

    def test_verdict_ignores_global_phase(self):
        phased = Unitary(np.exp(-0.4j) * gates.qft(2).entries)
        assert classify_locking_unitary(phased, "teleportation").valid_lock

    def test_non_bell_channel_rejected(self):
        with pytest.raises(ValueError):
            classify_locking_unitary(gates.qft(2), "teleportation", channel="ghz")


def _base_lock(name: str, seed: int) -> Unitary:
    if name == "qft":
        return gates.qft(2)
    if name == "ulock":
        return gates.lock_operator()
    return random_unitary(np.random.default_rng(seed), 2)


class TestTeleportClassifierAgainstPerBranch:
    """The stacked teleportation classifier against the per-branch reference."""

    @pytest.mark.parametrize("name", ["qft", "ulock", "haar"])
    @settings(max_examples=2, deadline=None)
    @example(phase=0.0, seed=0)
    @given(phase=st.floats(0.0, 2 * np.pi), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_branch_classifier(self, name, phase, seed):
        lock = Unitary(np.exp(1j * phase) * _base_lock(name, seed).entries)
        got = classify_locking_unitary(lock, "teleportation")
        want = classify_teleportation_per_branch(lock)
        assert (got.valid_lock, got.passed, got.end_to_end_correct) == (
            want.valid_lock,
            want.passed,
            want.end_to_end_correct,
        )
        assert list(got.checks.items()) == list(want.checks.items())
        assert list(got.per_subsystem) == list(want.per_subsystem)
        for r, sub in got.per_subsystem.items():
            ref = want.per_subsystem[r]
            flags = ("independent_of_encoding", "matches_closed_form", "maximally_mixed")
            assert [getattr(sub, f) for f in flags] == [getattr(ref, f) for f in flags]
            assert (sub.recoverable_bits, sub.leaky_bits) == (ref.recoverable_bits, ref.leaky_bits)
            assert sub.max_pairwise_diff == pytest.approx(ref.max_pairwise_diff, abs=1e-12)
        assert got.notes.keys() == want.notes.keys()
        assert got.notes["min_fidelity"] == pytest.approx(want.notes["min_fidelity"], abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 16])
@pytest.mark.parametrize("dim", [2, 4])
def test_max_pairwise_diff_matches_the_pairwise_loop(k, dim):
    rng = np.random.default_rng(100 * k + dim)
    mats = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(k)]
    got = _max_pairwise_diff(mats)
    assert type(got) is float
    assert got == max_pairwise_diff_loop(mats)  # bitwise, not approx
    if k < 2:
        assert got == 0.0


@pytest.fixture
def unitary_validations(monkeypatch):
    """A counter of ``Unitary`` validations: call it with a verdict to count its own."""
    original = Unitary.__post_init__
    seen = []

    def counting(self):
        seen.append(self)
        original(self)

    monkeypatch.setattr(Unitary, "__post_init__", counting)

    def count(verdict) -> int:
        seen.clear()
        verdict()
        return len(seen)

    return count


def test_a_verdict_builds_each_inverse_once(unitary_validations):
    # the theorem builds qft(2) and its adjoint; every dense run shares that adjoint
    assert unitary_validations(lambda: verify_theorem("ghz")) <= 2
    for task in ("dense_coding", "teleportation"):
        lock = gates.qft(2)
        # one adjoint for 16 dense runs, one unlock for 36 enumerations
        assert unitary_validations(lambda: classify_locking_unitary(lock, task)) <= 1
        assert unitary_validations(lambda: classify_locking_unitary(lock, task)) == 0

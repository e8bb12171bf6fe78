"""Verification sweeps and the lock classifier."""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulq import analysis, gates, protocols, qlinalg, states
from simulq.analysis import (
    _pair_diffs,
    classify_locking_unitary,
    verify_counterexample,
    verify_theorem,
)
from simulq.measurement import ProtocolViolation, _born_weights
from simulq.qlinalg import ATOL, ATOL_STRICT, StateVector, Unitary
from tests.classify_oracle import (
    bit_averages_loop,
    born_weights_per_row,
    classify_dense_per_run,
    classify_teleportation_per_branch,
    counterexample_shot_by_shot,
    dense_views_per_run,
    max_pairwise_diff_loop,
    within_class_max_loop,
)
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
        report = verify_counterexample(seed=7)
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
        # the two sampled stacks, in order, are Bob's 16 protocol intercepts on
        # A1 B, then Charlie's on A2 C, bit for bit
        seen = []
        sample = analysis.sample_projective

        def spy(rho, projector, shots, rng):
            seen.append(np.array(rho))
            return sample(rho, projector, shots, rng)

        monkeypatch.setattr(analysis, "sample_projective", spy)
        verify_counterexample(seed=3)
        views, _ = dense_views_per_run("bell", gates.lock_operator())
        assert list(views) == ["A1B", "A2C"]
        want = [np.array([rho.entries for rho in sub.values()]) for sub in views.values()]
        assert len(seen) == len(want) == 2
        assert all(np.array_equal(got, w) for got, w in zip(seen, want))


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

    @pytest.mark.parametrize("task", ["dense_coding", "teleportation"])
    def test_rejects_a_bare_array_by_its_type(self, task):
        with pytest.raises(ValueError, match="^the lock must be a Unitary, got ndarray$"):
            classify_locking_unitary(gates.qft(2).entries, task)

    def test_rejections_name_the_lock_size_and_the_channel(self):
        size = "^the lock must act on 2 sender qubits, got a 2x2 matrix$"
        with pytest.raises(ValueError, match=size):
            classify_locking_unitary(gates.hadamard(), "dense_coding")
        with pytest.raises(ValueError, match="^unknown channel 'cluster'"):
            classify_locking_unitary(gates.qft(2), "dense_coding", channel="cluster")
        with pytest.raises(ValueError, match="^unknown channel 'cluster'"):
            verify_theorem("cluster")


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


_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.diag([1.0, -1.0])
_PAULI_XYZ = (_X, _Y, _Z)


def clifford_word(rng, n: int = 2, length: int = 24) -> Unitary:
    """A random word of H and S on single qubits and, for n > 1, CNOTs on ordered qubit pairs."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    s = np.diag([1.0, 1.0j])
    mat = np.eye(1 << n, dtype=complex)
    for _ in range(length):
        kind = rng.integers(3 if n > 1 else 2)
        if kind < 2:
            q = int(rng.integers(n))
            gate = np.kron(np.kron(np.eye(1 << q), (h, s)[kind]), np.eye(1 << (n - 1 - q)))
        else:
            c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
            gate = np.zeros((1 << n, 1 << n))
            for col in range(1 << n):
                flip = (col >> (n - 1 - c)) & 1
                gate[col ^ (flip << (n - 1 - t)), col] = 1.0
        mat = gate @ mat
    return Unitary(mat)


def weyl_gate(c1: float, c2: float, c3: float) -> np.ndarray:
    """The canonical two-qubit gate ``exp(i (c1 XX + c2 YY + c3 ZZ))``."""
    generator = sum(c * np.kron(p, p) for c, p in zip((c1, c2, c3), _PAULI_XYZ))
    vals, vecs = np.linalg.eigh(generator)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def dressed_weyl(rng, c1: float, c2: float, c3: float) -> Unitary:
    """A Weyl gate between two layers of Haar-random single-qubit gates."""
    def local():
        return np.kron(random_unitary(rng, 1).entries, random_unitary(rng, 1).entries)

    return Unitary(local() @ weyl_gate(c1, c2, c3) @ local())


def _base_lock(name: str, seed: int) -> Unitary:
    if name == "qft":
        return gates.qft(2)
    if name == "ulock":
        return gates.lock_operator()
    rng = np.random.default_rng(seed)
    if name == "clifford":
        return clifford_word(rng)
    if name == "weyl_face":
        return dressed_weyl(rng, np.pi / 4, np.pi / 4, rng.uniform(0.0, np.pi / 4))
    if name == "weyl_off_face":
        # the Weyl chamber pi/4 >= c1 >= c2 >= |c3|, away from c1 = c2 = pi/4
        c1, c2, c3 = sorted(rng.uniform(0.0, np.pi / 4 - 0.05, size=3), reverse=True)
        return dressed_weyl(rng, c1, c2, c3 * rng.choice((-1.0, 1.0)))
    return random_unitary(rng, 2)


class TestTeleportClassifierAgainstPerBranch:
    """The site-block teleportation classifier against the per-branch reference."""

    @pytest.mark.parametrize(
        "name", ["qft", "ulock", "haar", "clifford", "weyl_face", "weyl_off_face"]
    )
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_max_pairwise_diff_matches_the_pairwise_loop(seed, dim):
    rng = np.random.default_rng([seed, dim])
    mats = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(16)]
    diffs = _pair_diffs(np.asarray(mats))
    assert diffs.shape == (120,)
    assert float(diffs.max()) == max_pairwise_diff_loop(mats)  # bitwise, not approx


def _random_stack(seed: int, shape: tuple) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_same_bit_pairs_are_the_triu_pairs():
    # _pair_diffs takes its pairs in _PAIRS order, and _bit_scan masks them with
    # _SAME_BIT's columns, so both must list the pairs as itertools.combinations
    # lists the encodings' pairs: np.triu_indices(16, 1) order
    encodings = analysis._ENCODINGS
    pairs = list(itertools.combinations(encodings, 2))
    want = np.array([np.equal(a, b) for a, b in pairs]).T
    assert np.array_equal(analysis._SAME_BIT, want)
    first, second = analysis._PAIRS
    assert [(encodings[i], encodings[j]) for i, j in zip(first, second)] == pairs
    assert not any(a.flags.writeable for a in (first, second, analysis._SAME_BIT))


def test_encoder_products_are_the_per_encoding_krons():
    want = [
        np.kron(gates.pauli_encoder(bits[:2]).entries, gates.pauli_encoder(bits[2:]).entries)
        for bits in analysis._ENCODINGS
    ]
    got = analysis._ENCODER_PRODUCTS
    assert got.tobytes() == np.array(want).tobytes()  # bitwise, signed zeros too
    assert got.shape == (16, 4, 4) and not got.flags.writeable


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [4, 8])
def test_bit_averages_match_the_per_bit_loop(seed, d):
    stack = _random_stack(seed, (16, d, d))
    assert np.array_equal(analysis._bit_averages(stack), bit_averages_loop(stack))  # bitwise


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [4, 8])
def test_within_class_maxima_match_the_mask_loop(seed, d):
    stack = _random_stack(seed, (16, d, d))
    pair_diffs = _pair_diffs(stack)
    evidence = analysis._bit_scan(analysis._bit_averages(stack), pair_diffs)
    got = [evidence[bit]["within_class_max_diff"] for bit in analysis.BIT_NAMES]
    assert got == within_class_max_loop(pair_diffs, analysis._SAME_BIT)  # bitwise


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("m", [4, 8])
def test_born_weights_of_a_stack_match_the_per_row_calls(seed, m):
    fam = states.family("ghz")
    targets = tuple(states.DENSE_CHANNELS["ghz"].values())
    rows = _random_stack(seed, (2, 16, 4, m))
    rows /= np.sqrt((np.abs(rows) ** 2).sum(axis=(2, 3), keepdims=True))
    got = np.array([_born_weights(r, fam, t) for r, t in zip(rows, targets)])
    assert np.array_equal(got, born_weights_per_row(rows, fam, targets))  # bitwise
    # tables from a random first one on fall short by 0.01 (k + 1): a stack
    # names its first short table, as the per-row calls do
    first = int(np.random.default_rng(seed).integers(16))
    scale = np.sqrt(1.0 - 0.01 * (np.arange(16) + 1) * (np.arange(16) >= first))
    short = rows[0] * scale[:, None, None]
    message = re.escape(
        f"state has weight {0.01 * (first + 1):.3e} outside the span of the 'ghz' family"
        f" on {targets[0]}"
    )
    with pytest.raises(ProtocolViolation, match=f"^{message}$"):
        _born_weights(short, fam, targets[0])
    with pytest.raises(ProtocolViolation, match=f"^{message}$"):
        born_weights_per_row((short,), fam, targets[:1])


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
    # the theorem builds qft(2) and its adjoint, the unlock of its one stacked sweep
    assert unitary_validations(lambda: verify_theorem("ghz")) <= 2
    lock = gates.qft(2)
    # a dense verdict keeps its one adjoint on the lock for every repeat
    assert unitary_validations(lambda: classify_locking_unitary(lock, "dense_coding")) <= 1
    assert unitary_validations(lambda: classify_locking_unitary(lock, "dense_coding")) == 0
    # a teleportation verdict keeps the one unlock of its one enumeration on the lock
    assert unitary_validations(lambda: classify_locking_unitary(lock, "teleportation")) <= 1
    assert unitary_validations(lambda: classify_locking_unitary(lock, "teleportation")) == 0


def _site_block_by_definition(u: Unitary, i: int) -> np.ndarray:
    """``Re Tr(U^H sigma_a^(i) U sigma_b^(i)) / 2^n`` with each Pauli padded by ``np.kron``."""
    n = u.n_qubits

    def at_i(p):
        return np.kron(np.kron(np.eye(1 << i), p), np.eye(1 << (n - 1 - i)))

    mat = u.entries
    traces = [
        [np.trace(mat.conj().T @ at_i(a) @ mat @ at_i(b)) for b in _PAULI_XYZ] for a in _PAULI_XYZ
    ]
    return np.real(traces) / u.dim


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_site_blocks_match_the_trace_definition(n):
    rng = np.random.default_rng(40 + n)
    for u in (random_unitary(rng, n), clifford_word(rng, n), gates.qft(n)):
        blocks = analysis._site_blocks(u)
        assert blocks.shape == (n, 3, 3)
        for i in range(n):
            np.testing.assert_allclose(blocks[i], _site_block_by_definition(u, i), atol=1e-13)


def test_site_blocks_of_a_weyl_gate_are_its_cosine_products():
    # the canonical gate's blocks are diagonal, and zero exactly when c1 = c2 = pi/4
    for c1, c2, c3 in ((0.3, 0.2, -0.1), (np.pi / 4, np.pi / 4, 0.2), (np.pi / 4, 0.5, 0.0)):
        cos = np.cos(2 * np.array([c1, c2, c3]))
        want = np.diag([cos[1] * cos[2], cos[0] * cos[2], cos[0] * cos[1]])
        for block in analysis._site_blocks(Unitary(weyl_gate(c1, c2, c3))):
            np.testing.assert_allclose(block, want, atol=1e-13)


# max|B| of the middle receiver of qft(N) for odd N, to three digits
_QFT_MIDDLE_LEAK = {1: 1.0, 3: 0.5, 5: 0.604, 7: 0.628, 9: 0.635}


@pytest.mark.parametrize("n", range(1, 11))
def test_qft_leaks_through_the_middle_receiver_only_for_odd_n(n):
    leaks = np.abs(analysis._site_blocks(gates.qft(n))).max(axis=(1, 2))
    if n % 2 == 0:
        assert leaks.max() < ATOL
    else:
        middle = (n - 1) // 2
        assert round(float(leaks[middle]), 3) == _QFT_MIDDLE_LEAK[n]
        assert np.delete(leaks, middle).max(initial=0.0) < ATOL


@pytest.mark.parametrize(
    "name, verdicts",
    [("weyl_face", {True}), ("weyl_off_face", {False}), ("clifford", {True, False})],
)
def test_lock_families_give_the_expected_verdicts(name, verdicts):
    # a dressed Weyl gate hides the payloads exactly on the c1 = c2 = pi/4 face, where
    # its blocks vanish; short Clifford words land on both sides
    seen = {
        classify_locking_unitary(_base_lock(name, seed), "teleportation").valid_lock
        for seed in range(10)
    }
    assert seen == verdicts


def _count_calls(monkeypatch, name: str, module=analysis) -> list:
    """Record each call of ``<module>.<name>`` while still making it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verdicts_run_no_protocol_transcript(monkeypatch):
    # every dense verdict, the theorem and the counterexample included, reads its
    # 16 encodings from one stacked sweep and runs no transcript; a teleportation
    # verdict enumerates one probe pair
    enumerations = _count_calls(monkeypatch, "enumerate_teleportation_with_lock")
    transcripts = _count_calls(monkeypatch, "run_dense_coding_with_lock", protocols)
    measurements = _count_calls(monkeypatch, "measure_in_family", protocols)
    lock = gates.qft(2)
    classify_locking_unitary(lock, "teleportation")
    assert (len(enumerations), len(transcripts), len(measurements)) == (1, 0, 0)
    for channel in ("bell", "ghz", "w"):
        classify_locking_unitary(lock, "dense_coding", channel)
        verify_theorem(channel)
    verify_counterexample()
    assert (len(enumerations), len(transcripts), len(measurements)) == (1, 0, 0)


def test_claim_checks_sample_once_per_view(monkeypatch):
    # the theorem samples nothing; the counterexample draws the shots of each
    # receiver's 16 views in one call, and averages each receiver's views once
    samples = _count_calls(monkeypatch, "sample_projective")
    averages = _count_calls(monkeypatch, "_bit_averages")
    verify_theorem("ghz")
    assert samples == []
    del averages[:]
    verify_counterexample()
    assert len(samples) == len(averages) == 2
    assert all(
        rho.shape == (16, 4, 4) and shots == analysis.SUPPORT_SHOTS for rho, _, shots, _ in samples
    )


@pytest.mark.parametrize("seed", [0, 7, 1789, 20240817, 2**31 - 1])
def test_counterexample_matches_the_shot_by_shot_loop(seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify_counterexample(got_rng)
    want = counterexample_shot_by_shot(want_rng)
    _assert_same_report(got, want)
    assert got.notes["measurement_accuracy"] == want.notes["measurement_accuracy"]
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_teleportation_verdict_builds_the_locked_pairs_once(monkeypatch):
    # each verdict, repeated or not, makes one enumeration, which builds the pairs once
    enumerations = _count_calls(monkeypatch, "enumerate_teleportation_with_lock")
    builds = []
    build = protocols._locked_pairs
    monkeypatch.setattr(protocols, "_locked_pairs", lambda *a: builds.append(a) or build(*a))
    locks = (gates.qft(2), gates.lock_operator(), random_unitary(np.random.default_rng(3), 2))
    for lock in locks + locks:
        before = (len(enumerations), len(builds))
        classify_locking_unitary(lock, "teleportation")
        assert (len(enumerations), len(builds)) == (before[0] + 1, before[1] + 1)
        assert builds[-1][0] == 2 and builds[-1][1] is lock
        assert enumerations[-1] == (analysis._PROBE_PAIR, lock)


# --- the stacked dense sweep against the 16 protocol runs ---------------------

_DENSE_LOCKS = ("qft", "qft_phase", "ulock", "identity", "weyl_face", "weyl_off_face", "clifford")
_DENSE_LOCKS += tuple(f"haar{i}" for i in range(4))


def _dense_lock(name: str) -> Unitary:
    if name == "qft_phase":
        phase = np.random.default_rng(11).uniform(0.0, 2 * np.pi)
        return Unitary(np.exp(1j * phase) * gates.qft(2).entries)
    if name == "identity":
        return gates.identity(2)
    if name.startswith("haar"):
        return _base_lock("haar", 60 + int(name[4:]))
    return _base_lock(name, 7)


def _assert_same_report(got, want) -> None:
    """Equal keys, order, booleans, bit lists and strings; floats within 1e-12."""

    def walk(a, b, path):
        if isinstance(a, dict):
            assert list(a) == list(b), path
            for key in a:
                walk(a[key], b[key], path + (key,))
        elif isinstance(a, float):
            assert type(b) is float and abs(a - b) <= 1e-12, (path, a, b)
        else:
            assert type(a) is type(b) and a == b, (path, a, b)

    assert (got.valid_lock, got.passed, got.end_to_end_correct) == (
        want.valid_lock,
        want.passed,
        want.end_to_end_correct,
    )
    assert list(got.checks.items()) == list(want.checks.items())
    for name, sub in got.per_subsystem.items():
        ref = want.per_subsystem[name]
        assert (sub.recoverable_bits, sub.leaky_bits) == (ref.recoverable_bits, ref.leaky_bits)
    walk(got.to_dict(), want.to_dict(), ())


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
@pytest.mark.parametrize("name", _DENSE_LOCKS)
def test_dense_verdict_matches_the_per_run_classifier(name, channel):
    lock = _dense_lock(name)
    _assert_same_report(
        classify_locking_unitary(lock, "dense_coding", channel),
        classify_dense_per_run(lock, channel),
    )


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
def test_theorem_report_matches_the_per_run_classifier(channel):
    want = classify_dense_per_run(gates.qft(2), channel, theorem=True, lock_used="qft")
    _assert_same_report(verify_theorem(channel), want)


def test_dense_verdict_families_are_sorted_by_the_weyl_face():
    # a dressed Weyl gate locks dense coding on the c1 = c2 = pi/4 face and leaks off it
    verdicts = {
        name: {
            classify_locking_unitary(_dense_lock(name), "dense_coding", ch).valid_lock
            for ch in ("bell", "ghz", "w")
        }
        for name in ("weyl_face", "weyl_off_face", "haar0")
    }
    assert verdicts == {"weyl_face": {True}, "weyl_off_face": {False}, "haar0": {False}}


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
@pytest.mark.parametrize("name", ["qft", "ulock", "haar0", "clifford"])
def test_stacked_views_are_the_protocol_intercepts(name, channel):
    lock = _dense_lock(name)
    stacks, decode_ok = analysis._stacked_sweep(channel, lock)
    views, decoded = dense_views_per_run(channel, lock)
    assert list(stacks) == list(views)
    assert decode_ok is decoded is True
    for sub, stack in stacks.items():
        assert stack.shape[0] == 16
        for got, bits in zip(stack, analysis._ENCODINGS):
            want = views[sub][bits].entries
            if name in ("qft", "ulock"):
                # the claim checks' locks: their views are the intercepts bit for bit
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= ATOL_STRICT


_DECODING_VERDICTS = {
    "classify": lambda channel: classify_locking_unitary(gates.qft(2), "dense_coding", channel),
    "theorem": verify_theorem,
}


@pytest.mark.parametrize(
    "verdict, channel",
    [(verdict, channel) for verdict in _DECODING_VERDICTS for channel in ("bell", "ghz", "w")],
    ids=["bell", "ghz", "w", "theorem-bell", "theorem-ghz", "theorem-w"],
)
def test_stacked_decode_fails_when_the_unlock_does_nothing(verdict, channel, monkeypatch):
    # the exhaustive decode reads the unlocked register: with the identity as the
    # unlock, the Fourier lock scrambles the messages and the verdict must say so
    monkeypatch.setattr(analysis.gates, "adjoint", lambda u: gates.identity(2))
    report = _DECODING_VERDICTS[verdict](channel)
    assert report.checks["decode_correct"] is False
    assert report.end_to_end_correct is False
    assert not report.valid_lock
    assert report.passed is False


def _ghz_channel_with_leaks(bob: float, charlie: float) -> StateVector:
    """The GHZ channel's initial state with weight ``bob`` (``charlie``) of the
    receiver's copy moved to ``|0 01>``, outside the GHZ family's span."""

    def copy(leak: float, labels: tuple) -> StateVector:
        amps = np.sqrt(1.0 - leak) * states.ghz(0, 0).amplitudes
        amps[1] = np.sqrt(leak)
        return StateVector(amps, labels)

    layout = states.DENSE_CHANNELS["ghz"]
    return qlinalg.tensor(copy(bob, layout["bob"]), copy(charlie, layout["charlie"]))


@pytest.mark.parametrize(
    "leaks, who, weight",
    [
        ((0.0, 0.25), "charlie", "2.500e-01"),
        ((0.25, 0.5), "bob", "2.500e-01"),
        ((0.5, 0.25), "bob", "5.000e-01"),
    ],
)
def test_stacked_decode_names_the_first_out_of_span_receiver(leaks, who, weight, monkeypatch):
    # a receiver's weight outside the span is the same for all 16 encodings, so
    # the first offender is the first encoding's: Bob's if he is out of span
    state = _ghz_channel_with_leaks(*leaks)
    monkeypatch.setattr(states, "initial_state", lambda channel: state)
    targets = states.DENSE_CHANNELS["ghz"][who]
    message = "^" + re.escape(
        f"state has weight {weight} outside the span of the 'ghz' family on {targets}"
    ) + "$"
    for verdict in (
        lambda: verify_theorem("ghz"),
        lambda: classify_locking_unitary(gates.lock_operator(), "dense_coding", "ghz"),
    ):
        with pytest.raises(ProtocolViolation, match=message):
            verdict()
    # the protocol run of the first encoding, 0000, raises the same message
    with pytest.raises(ProtocolViolation, match=message):
        protocols.run_dense_coding_with_lock("ghz", (0, 0), (0, 0), gates.qft(2), seed=0)
    # and so do the per-row calls, encoding by encoding, on the sweep's own residuals
    calls = []
    monkeypatch.setattr(
        analysis,
        "_born_weights",
        lambda rows, fam, t: calls.append((rows, fam, t)) or np.zeros(rows.shape[:-1]),
    )
    analysis._stacked_sweep("ghz", gates.qft(2))
    (bob_rows, fam, bob), (charlie_rows, _, charlie) = calls
    assert bob_rows.shape == charlie_rows.shape == (16, 4, 8)
    with pytest.raises(ProtocolViolation, match=message):
        born_weights_per_row((bob_rows, charlie_rows), fam, (bob, charlie))


# the locks the single end-to-end run must reject once the unlock is wrong
_HAAR_LOCKS = tuple(f"haar{i}" for i in range(5))


@pytest.mark.parametrize(
    "unlock, names",
    [
        ("identity", ("qft", "ulock", *_HAAR_LOCKS)),
        ("adjoint", ("ulock", *_HAAR_LOCKS)),
    ],
)
def test_one_run_fails_when_the_unlock_is_wrong(unlock, names, monkeypatch):
    # the verdict's one enumeration reads the unlocked register: with the identity
    # or the adjoint as the unlock, the lock scrambles the payloads and the verdict
    # must say so (the adjoint of the symmetric qft(2) is its conjugate, so qft
    # is left out there)
    wrong = {"identity": lambda u: gates.identity(u.n_qubits), "adjoint": gates.adjoint}[unlock]
    monkeypatch.setattr(protocols, "_unlock", wrong)
    for name in names:
        lock = _dense_lock(name)
        report = classify_locking_unitary(lock, "teleportation")
        assert report.end_to_end_correct is False, name
        assert report.checks["end_to_end_correct"] is False
        assert report.notes["min_fidelity"] < 1.0 - ATOL
        assert not report.valid_lock
        # the 36-pair per-branch reference flags the same lock
        assert classify_teleportation_per_branch(lock).end_to_end_correct is False


# --- G6: the GHZ and W channels are the Bell channel through a receiver isometry

# the closed forms as they were written out by hand, entry by entry
_LITERAL_VIEWS = {
    "bell": np.eye(4) / 4.0,
    "ghz": np.diag([1.0, 0, 0, 1.0, 1.0, 0, 0, 1.0]) / 4.0,
    "w": np.array(
        [
            [2, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 2, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0],
        ]
    )
    / 8.0,
}


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
def test_closed_forms_are_the_v_images_of_the_fully_mixed_state(channel):
    view = analysis._expected_view(channel)
    assert not view.flags.writeable
    assert view.shape == _LITERAL_VIEWS[channel].shape
    assert np.abs(view - _LITERAL_VIEWS[channel]).max() <= ATOL_STRICT


def test_unknown_closed_form_is_refused():
    with pytest.raises(ValueError, match="unknown channel 'cluster'"):
        analysis._expected_view("cluster")


@pytest.mark.parametrize("channel, member", [("ghz", states.ghz), ("w", states.w)])
def test_members_are_bell_members_through_the_receiver_isometry(channel, member):
    iv = np.kron(np.eye(2), analysis._RECEIVER_ISOMETRY[channel])
    np.testing.assert_allclose(iv.T @ iv, np.eye(4), atol=ATOL_STRICT)  # an isometry
    for x in (0, 1):
        for y in (0, 1):
            sign = -1.0 if (channel, x, y) == ("w", 1, 1) else 1.0
            image = iv @ states.phi(x, y).amplitudes
            assert np.abs(member(x, y).amplitudes - sign * image).max() <= ATOL_STRICT

"""End-to-end protocol pipelines: dense coding and teleportation."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simulq import gates, protocols, states
from simulq.protocols import (
    DENSE_STEPS,
    MAX_RECEIVERS,
    TELEPORT_STEPS,
    TeleportInput,
    enumerate_teleportation,
    enumerate_teleportation_with_lock,
    run_dense_coding_with_lock,
    run_teleportation,
)
from simulq.qlinalg import (
    ATOL,
    StateVector,
    Unitary,
    apply,
    equal_up_to_global_phase,
    partial_trace,
    tensor,
)
from tests.conftest import random_state, random_unitary
from tests.teleport_oracle import sample_teleportation, walk_teleportation_with_lock

ALL_ENCODINGS = list(itertools.product((0, 1), repeat=4))

CHANNELS = ("bell", "ghz", "w")

LOCKS = {"qft": gates.qft(2), "ulock": gates.lock_operator()}


def encoded_payload(payload: StateVector, bits, label: str) -> StateVector:
    u = gates.pauli_encoder(bits).entries
    return StateVector(u @ payload.amplitudes, (label,))


class TestDenseCoding:
    @pytest.mark.parametrize("channel", CHANNELS)
    def test_decode_equals_encode_for_every_message(self, channel):
        for bits in ALL_ENCODINGS:
            t = run_dense_coding_with_lock(
                channel, bits[:2], bits[2:], gates.qft(2), lock_name="qft", seed=11
            )
            assert t.outcomes["bob"] == bits[:2]
            assert t.outcomes["charlie"] == bits[2:]

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_final_measurement_is_a_single_branch(self, channel):
        # two different seeds must give identical outcomes: nothing is random
        for bits in [(0, 1, 1, 0), (1, 1, 1, 1)]:
            a = run_dense_coding_with_lock(
                channel, bits[:2], bits[2:], gates.qft(2), lock_name="qft", seed=0
            )
            b = run_dense_coding_with_lock(
                channel, bits[:2], bits[2:], gates.qft(2), lock_name="qft", seed=997
            )
            assert a.outcomes == b.outcomes

    def test_step_names(self):
        t = run_dense_coding_with_lock(
            "bell", (0, 0), (0, 0), gates.qft(2), lock_name="qft", seed=0
        )
        assert tuple(name for name, _ in t.steps) == DENSE_STEPS
        assert t.protocol == "dense_coding:bell:qft"

    def test_intercepts_recorded_for_both_receivers(self):
        t = run_dense_coding_with_lock(
            "bell", (1, 0), (0, 1), gates.qft(2), lock_name="qft", seed=0
        )
        assert ("step2_lock_send", ("A1", "B")) in t.intercepts
        assert ("step2_lock_send", ("A2", "C")) in t.intercepts
        rho = t.intercepts[("step2_lock_send", ("A1", "B"))]
        assert_allclose(rho.entries, np.eye(4) / 4, atol=1e-10)

    def test_intercept_reduced_matches_recorded(self):
        t = run_dense_coding_with_lock("w", (1, 1), (0, 1), gates.qft(2), lock_name="qft", seed=0)
        recomputed = partial_trace(t.step_state("step2_lock_send"), ("A2", "C1", "C2"))
        assert_allclose(
            recomputed.entries,
            t.intercepts[("step2_lock_send", ("A2", "C1", "C2"))].entries,
            atol=1e-14,
        )

    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize("lock", ["qft", "ulock"])
    def test_unlock_inverts_lock(self, channel, lock):
        # the post-unlock register equals the post-encode register, for every
        # encoding and both named locks
        for bits in ALL_ENCODINGS:
            t = run_dense_coding_with_lock(
                channel, bits[:2], bits[2:], LOCKS[lock], lock_name=lock, seed=0
            )
            assert equal_up_to_global_phase(
                t.step_state("step3_unlock"), t.step_state("step1_encode")
            )

    def test_full_register_intercept_is_pure(self):
        t = run_dense_coding_with_lock(
            "ghz", (0, 1), (1, 0), gates.qft(2), lock_name="qft", seed=0
        )
        rho = partial_trace(t.step_state("step3_unlock"), t.step_state("step0_init").labels)
        purity = float(np.real(np.trace(rho.entries @ rho.entries)))
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_unlock_restores_family_member(self):
        # after step 3 the (A1, B) pair is exactly phi(b1, b2) again
        t = run_dense_coding_with_lock(
            "bell", (1, 0), (1, 1), gates.qft(2), lock_name="qft", seed=0
        )
        from simulq.states import phi

        rho = partial_trace(t.step_state("step3_unlock"), ("A1", "B"))
        member = phi(1, 0)
        overlap = member.amplitudes.conj() @ rho.entries @ member.amplitudes
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_ulock_lock_still_decodes(self):
        for bits in ALL_ENCODINGS:
            t = run_dense_coding_with_lock(
                "bell", bits[:2], bits[2:], gates.lock_operator(), lock_name="ulock", seed=5
            )
            assert t.outcomes["bob"] == bits[:2]
            assert t.outcomes["charlie"] == bits[2:]

    def test_custom_lock_name_in_protocol_id(self):
        t = run_dense_coding_with_lock(
            "bell", (0, 0), (0, 0), gates.qft(2), lock_name="mylock", seed=0
        )
        assert t.protocol == "dense_coding:bell:mylock"

    def test_rejects_wrong_lock_dimension(self):
        with pytest.raises(ValueError):
            run_dense_coding_with_lock("bell", (0, 0), (0, 0), gates.hadamard(), seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="unknown channel 'bogus'"):
            run_dense_coding_with_lock("bogus", (0, 0), (0, 0), gates.qft(2), seed=0)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            run_dense_coding_with_lock("bell", (0, 2), (0, 0), gates.qft(2), seed=0)
        # an unknown lock name is a command-line error:
        # tests/test_cli.py::test_argparse_usage_exits_2 runs ``run --lock nope``


class TestUlockCounterexampleViews:
    """The Hadamard--CNOT lock leaves one bit readable per receiver."""

    RHO_B0 = (
        np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, -1],
                [1, 0, 1, 0],
                [0, -1, 0, 1],
            ]
        )
        / 4.0
    )
    RHO_B1 = (
        np.array(
            [
                [1, 0, -1, 0],
                [0, 1, 0, 1],
                [-1, 0, 1, 0],
                [0, 1, 0, 1],
            ]
        )
        / 4.0
    )

    def bob_view(self, bits):
        t = run_dense_coding_with_lock(
            "bell", bits[:2], bits[2:], gates.lock_operator(), lock_name="ulock", seed=0
        )
        return t.intercepts[("step2_lock_send", ("A1", "B"))].entries

    def test_view_matches_conditional_closed_form(self):
        for bits in ALL_ENCODINGS:
            expected = self.RHO_B0 if bits[0] == 0 else self.RHO_B1
            assert_allclose(self.bob_view(bits), expected, atol=1e-10)

    def test_conditional_views_have_orthogonal_supports(self):
        product = self.RHO_B0 @ self.RHO_B1
        assert abs(np.trace(product)) <= 1e-12

    def test_charlie_view_depends_only_on_c2(self):
        views = {}
        for bits in ALL_ENCODINGS:
            t = run_dense_coding_with_lock(
                "bell", bits[:2], bits[2:], gates.lock_operator(), lock_name="ulock", seed=0
            )
            views[bits] = t.intercepts[("step2_lock_send", ("A2", "C"))].entries
        for a, b in itertools.product(ALL_ENCODINGS, repeat=2):
            diff = np.max(np.abs(views[a] - views[b]))
            if a[3] == b[3]:
                assert diff < 1e-10
        avg0 = np.mean([v for k, v in views.items() if k[3] == 0], axis=0)
        avg1 = np.mean([v for k, v in views.items() if k[3] == 1], axis=0)
        assert abs(np.trace(avg0 @ avg1)) <= 1e-12


class TestTeleportUlock2:
    def test_sixteen_uniform_branches_all_exact(self, rng):
        p1 = random_state(rng, 1, ("p1",))
        p2 = random_state(rng, 1, ("p2",))
        branches = enumerate_teleportation(TeleportInput("ulock2", (p1, p2), 2))
        assert len(branches) == 16
        assert sorted(br.results for br in branches) == sorted(
            itertools.product(itertools.product((0, 1), repeat=2), repeat=2)
        )
        for br in branches:
            assert br.probability == pytest.approx(1 / 16, abs=1e-12)
            assert all(f == pytest.approx(1.0, abs=1e-10) for f in br.fidelities)

    def test_pre_unlock_state_is_locked_encoded_payloads(self, rng):
        # collapsed (B, C) register == ULOCK^dagger (U(x1y1)|p1> x U(x2y2)|p2>)
        # up to a global phase, for every branch
        p1 = random_state(rng, 1, ("p1",))
        p2 = random_state(rng, 1, ("p2",))
        unlock = Unitary(gates.lock_operator().entries.conj().T)
        for br in enumerate_teleportation(TeleportInput("ulock2", (p1, p2), 2)):
            enc = tensor(
                encoded_payload(p1, br.results[0], "B"),
                encoded_payload(p2, br.results[1], "C"),
            )
            expected = apply(enc, unlock, ("B", "C"))
            assert equal_up_to_global_phase(br.pre_unlock_state, expected)

    def test_sampled_run_recovers_both_payloads(self, rng):
        p1 = random_state(rng, 1, ("p1",))
        p2 = random_state(rng, 1, ("p2",))
        t = run_teleportation(TeleportInput("ulock2", (p1, p2), 2), seed=42)
        assert tuple(name for name, _ in t.steps) == TELEPORT_STEPS
        assert set(t.outcomes["results"]) == {"B", "C"}
        for fid in t.outcomes["fidelities"].values():
            assert fid == pytest.approx(1.0, abs=1e-10)


class TestTeleportQft:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_branch_exact(self, rng, n):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        branches = enumerate_teleportation(TeleportInput("qftN", payloads, n))
        assert len(branches) == 4**n
        for br in branches:
            assert br.probability == pytest.approx(4.0**-n, abs=1e-12)
            assert all(f == pytest.approx(1.0, abs=1e-10) for f in br.fidelities)

    def test_pre_unlock_state_matches_fourier_form(self, rng):
        # collapsed (B1, B2) register == QFT (U(x1y1)|p1> x U(x2y2)|p2>)
        p1 = random_state(rng, 1, ("p1",))
        p2 = random_state(rng, 1, ("p2",))
        for br in enumerate_teleportation(TeleportInput("qftN", (p1, p2), 2)):
            enc = tensor(
                encoded_payload(p1, br.results[0], "B1"),
                encoded_payload(p2, br.results[1], "B2"),
            )
            expected = apply(enc, gates.qft(2), ("B1", "B2"))
            assert equal_up_to_global_phase(br.pre_unlock_state, expected)

    def test_single_receiver_reduces_to_plain_teleportation(self, rng):
        payload = random_state(rng, 1, ("p",))
        t = run_teleportation(TeleportInput("qftN", (payload,), 1), seed=8)
        assert t.outcomes["fidelities"]["B1"] == pytest.approx(1.0, abs=1e-10)

    def test_sampled_runs_n3(self, rng):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(3))
        for seed in range(5):
            t = run_teleportation(TeleportInput("qftN", payloads, 3), seed=seed)
            for fid in t.outcomes["fidelities"].values():
                assert fid == pytest.approx(1.0, abs=1e-10)

    def test_input_validation(self, rng):
        p = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
        with pytest.raises(ValueError):
            TeleportInput("qftN", p, 7)
        with pytest.raises(ValueError):
            TeleportInput("ulock2", p, 3)
        with pytest.raises(ValueError):
            TeleportInput("qftN", p, 3)  # payload count mismatch
        with pytest.raises(ValueError):
            TeleportInput("bogus", p, 2)
        two_qubit = random_state(np.random.default_rng(0), 2, ("x", "y"))
        with pytest.raises(ValueError):
            TeleportInput("qftN", (two_qubit,), 1)

    def test_receiver_count_is_capped(self, rng):
        assert MAX_RECEIVERS == 6
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(7))
        with pytest.raises(ValueError, match=r"^qftN supports 1\.\.6 receivers, got 7$"):
            TeleportInput("qftN", payloads, 7)
        with pytest.raises(
            ValueError, match="^7 receivers requested; the enumerator is capped at 6 receivers$"
        ):
            enumerate_teleportation_with_lock(payloads, gates.qft(7))

    def test_receiver_label_override(self, rng):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
        lock = gates.qft(2)
        branches = enumerate_teleportation_with_lock(payloads, lock, receiver_labels=("R1", "R2"))
        assert branches[0].pre_unlock_state.labels == ("R1", "R2")
        with pytest.raises(ValueError):
            enumerate_teleportation_with_lock(payloads, lock, ("only-one",))


def test_receiver_labels_of_each_entry_point(rng):
    # two receivers are B, C for the bare enumerator and the ulock2 scheme,
    # but B1, B2 for qftN, which numbers its receivers at every N
    two = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
    three = two + (random_state(rng, 1, ("p2",)),)

    def labels(branches):
        return {br.pre_unlock_state.labels for br in branches}

    assert labels(enumerate_teleportation_with_lock(two, gates.qft(2))) == {("B", "C")}
    assert labels(enumerate_teleportation_with_lock(three, gates.qft(3))) == {("B1", "B2", "B3")}
    assert labels(enumerate_teleportation(TeleportInput("ulock2", two, 2))) == {("B", "C")}
    assert labels(enumerate_teleportation(TeleportInput("qftN", two, 2))) == {("B1", "B2")}
    for scheme, expected in (("ulock2", {"B", "C"}), ("qftN", {"B1", "B2"})):
        t = run_teleportation(TeleportInput(scheme, two, 2), seed=0)
        assert set(t.outcomes["fidelities"]) == expected


def _lock(name: str, n: int, rng) -> Unitary:
    if name == "qft":
        return gates.qft(n)
    if name == "ulock":
        return gates.lock_operator()
    return random_unitary(rng, n)


# (lock, receivers): the Hadamard--CNOT lock exists for two receivers only
_LOCK_CASES = st.one_of(
    st.tuples(st.sampled_from(("qft", "haar")), st.integers(1, 4)),
    st.tuples(st.just("ulock"), st.just(2)),
)


class TestBranchEngineAgainstWalk:
    """The batched enumerator against the branch-by-branch reference walk."""

    @staticmethod
    def assert_same_branches(payloads, lock, labels):
        got = enumerate_teleportation_with_lock(payloads, lock, labels)
        want = walk_teleportation_with_lock(payloads, lock, Unitary(lock.entries.conj()), labels)

        assert [br.results for br in got] == [br.results for br in want]
        for g, w in zip(got, want):
            assert g.probability == pytest.approx(w.probability, abs=1e-12)
            for field in ("pre_unlock_state", "corrected_state"):
                gs, ws = getattr(g, field), getattr(w, field)
                assert gs.labels == ws.labels
                assert_allclose(gs.amplitudes, ws.amplitudes, rtol=0, atol=1e-12)
            assert_allclose(g.fidelities, w.fidelities, rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(case=_LOCK_CASES, custom_labels=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_walk(self, case, custom_labels, seed):
        lock_name, n = case
        rng = np.random.default_rng(seed)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        lock = _lock(lock_name, n, rng)
        labels = tuple(f"R{i + 1}" for i in range(n)) if custom_labels else None
        self.assert_same_branches(payloads, lock, labels)

    def test_matches_reference_walk_for_five_receivers(self):
        rng = np.random.default_rng(2009)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(5))
        labels = ("Bob", "Charlie", "Dave", "Erin", "Frank")
        self.assert_same_branches(payloads, random_unitary(rng, 5), labels)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_every_branch_is_equally_likely_under_any_lock(self, n, seed):
        # the sender halves A1..AN are maximally mixed, so no unitary lock can
        # make a Bell outcome less likely than 4^-n: no branch is ever pruned
        rng = np.random.default_rng(seed)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        lock = random_unitary(rng, n)
        branches = enumerate_teleportation_with_lock(payloads, lock)
        assert len(branches) == 4**n
        for br in branches:
            assert br.probability == pytest.approx(4.0**-n, abs=1e-12)


def test_correction_digit_table_is_derived_once(rng):
    for n in (1, 2, 3):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        enumerate_teleportation_with_lock(payloads, random_unitary(rng, n))
    assert len(protocols._DIGIT_TABLES) == 1
    src, sign = next(iter(protocols._DIGIT_TABLES.values()))
    assert src.tolist() == [[0, 1], [0, 1], [1, 0], [1, 0]]
    assert sign.tolist() == [[1, 1], [1, -1], [1, 1], [1, -1]]
    assert not (src.flags.writeable or sign.flags.writeable)


def test_unlock_is_built_once_per_lock(rng):
    lock = random_unitary(rng, 2)
    unlock = protocols._unlock(lock)
    assert protocols._unlock(lock) is unlock
    assert np.array_equal(unlock.entries, lock.entries.conj())
    # the dense adjoint is kept apart from the teleportation unlock
    assert np.array_equal(gates.adjoint(lock).entries, lock.entries.conj().T)
    assert protocols._unlock(lock) is unlock


def test_bell_readout_is_built_once():
    readout = protocols._bell_readout()
    assert protocols._bell_readout() is readout
    members = [m.amplitudes.conj() for m in states.family("bell").members.values()]
    assert np.array_equal(readout, np.reshape(members, (4, 2, 2)))
    assert not readout.flags.writeable


# (scheme, receivers) of the sampled-run cases; n = 6 has its own seeded test
_SCHEME_CASES = st.one_of(
    st.tuples(st.just("qftN"), st.integers(1, 5)),
    st.tuples(st.just("ulock2"), st.just(2)),
)


class TestSampledRunAgainstOracle:
    """The sampled run on the shared pairs against the full-register sampler."""

    @staticmethod
    def assert_same_run(inp, seed):
        got = run_teleportation(inp, seed=seed)
        want = sample_teleportation(inp, seed=seed)

        assert (got.protocol, got.seed) == (want.protocol, want.seed)
        assert got.outcomes["results"] == want.outcomes["results"]
        assert [name for name, _ in got.steps] == [name for name, _ in want.steps]
        for (_, g), (_, w) in zip(got.steps, want.steps):
            assert g.labels == w.labels
            assert_allclose(g.amplitudes, w.amplitudes, rtol=0, atol=1e-12)
        for g_map, w_map in (
            (got.intercepts, want.intercepts),
            (got.outcomes["recovered"], want.outcomes["recovered"]),
        ):
            assert list(g_map) == list(w_map)
            for key, rho in g_map.items():
                assert rho.labels == w_map[key].labels
                assert_allclose(rho.entries, w_map[key].entries, rtol=0, atol=1e-12)
        g_fids, w_fids = got.outcomes["fidelities"], want.outcomes["fidelities"]
        assert list(g_fids) == list(w_fids)
        assert_allclose(list(g_fids.values()), list(w_fids.values()), rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        case=_SCHEME_CASES,
        label=st.sampled_from(("p", "q0", "A1", "B1")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_register_sampler(self, case, label, seed):
        scheme, n = case
        rng = np.random.default_rng(seed)
        payloads = tuple(random_state(rng, 1, (label,)) for _ in range(n))
        self.assert_same_run(TeleportInput(scheme, payloads, n), seed)

    def test_matches_full_register_sampler_for_six_receivers(self):
        rng = np.random.default_rng(2009)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(6))
        self.assert_same_run(TeleportInput("qftN", payloads, 6), 2009)


_SQRT_HALF = 1 / np.sqrt(2)
# the payloads 0, 1, + and +i
_PROBE_PAYLOADS = tuple(
    StateVector(amps, ("p",))
    for amps in ((1, 0), (0, 1), (_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, 1j * _SQRT_HALF))
)


def _own_digit_views(branches, n: int) -> np.ndarray:
    """Each receiver's pre-unlock view given only their own two result bits.

    Returns ``(n, 4, 2, 2)``: receiver ``i``'s reduced state for each value of
    their base-4 digit, averaged (probability-weighted) over the other digits.
    """
    pre = np.array([br.pre_unlock_state.amplitudes for br in branches])
    prob = np.array([br.probability for br in branches])
    weighted = (pre * np.sqrt(prob)[:, None]).reshape((4,) * n + (2,) * n)
    views = []
    for i in range(n):
        psi = np.moveaxis(weighted, (i, n + i), (0, 1)).reshape(4, 2, -1)
        rho = psi @ psi.conj().swapaxes(1, 2)
        views.append(rho / np.trace(rho, axis1=1, axis2=2)[:, None, None])
    return np.array(views)


class TestFourierLockParity:
    """The Fourier lock hides the payloads only for an even number of receivers."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_receiver_views_leak_only_for_odd_n(self, n):
        lock = gates.qft(n)
        views = np.array([
            _own_digit_views(enumerate_teleportation_with_lock(payloads, lock), n)
            for payloads in itertools.product(_PROBE_PAYLOADS, repeat=n)
        ])
        leak = np.abs(views - views[0]).max()
        if n % 2 == 0:
            assert leak < ATOL
        else:
            assert leak > 0.1


class TestTranscriptSerialization:
    def test_same_seed_is_byte_identical(self):
        def render(seed):
            t = run_dense_coding_with_lock(
                "ghz", (1, 0), (0, 1), gates.qft(2), lock_name="qft", seed=seed
            )
            return json.dumps(t.to_dict(include_snapshots=True), sort_keys=True)

        assert render(7) == render(7)

    def test_teleport_transcript_roundtrips_to_json(self, rng):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
        t = run_teleportation(TeleportInput("qftN", payloads, 2), seed=3)
        blob = json.dumps(t.to_dict(include_snapshots=True), sort_keys=True)
        data = json.loads(blob)
        assert data["protocol"] == "teleportation:qftN:n=2"
        assert [s["name"] for s in data["steps"]] == list(TELEPORT_STEPS)

    def test_step_state_unknown_name(self):
        t = run_dense_coding_with_lock(
            "bell", (0, 0), (0, 0), gates.qft(2), lock_name="qft", seed=0
        )
        with pytest.raises(KeyError):
            t.step_state("step9_profit")

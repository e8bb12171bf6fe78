"""End-to-end protocol pipelines: dense coding and teleportation."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simulq import gates, protocols, qlinalg, states
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
from tests.teleport_oracle import (
    expanded_corrections,
    gathered_corrections,
    sample_teleportation,
    shared_pairs,
    strided_fidelities,
    walk_teleportation_with_lock,
)

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

    def test_receiver_count_is_capped(self, rng, monkeypatch):
        assert MAX_RECEIVERS == 6
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(7))
        with pytest.raises(
            ValueError, match=r"^7 receivers requested; the enumerator takes 1\.\.6 receivers$"
        ):
            enumerate_teleportation_with_lock(payloads, gates.qft(7))
        # each refusal comes before any lock is built; the layout table is
        # cached, so a count that is not an int must be refused before it
        built = []
        monkeypatch.setattr(gates, "qft", lambda n: built.append(("qft", n)))
        monkeypatch.setattr(gates, "lock_operator", lambda: built.append("lock_operator"))
        refusals = [
            ("bogus", 2, "unknown scheme 'bogus'; expected ulock2 or qftN"),
            ("qftN", 0, "qftN supports 1..6 receivers, got 0"),
            ("qftN", 7, "qftN supports 1..6 receivers, got 7"),
            ("qftN", 100000, "qftN supports 1..6 receivers, got 100000"),
            ("ulock2", 3, "the ulock2 scheme has exactly 2 receivers"),
            ("qftN", 2.0, "the receiver count must be an integer, got 2.0"),
            ("qftN", True, "the receiver count must be an integer, got True"),
            ("qftN", "2", "the receiver count must be an integer, got '2'"),
        ]
        for scheme, n, message in refusals:
            # as many payloads as the count asks for, where it asks for 1..7
            k = n if type(n) is int and 1 <= n <= 7 else 2
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TeleportInput(scheme, payloads[:k], n)
        assert built == []

    def test_a_numpy_receiver_count_is_stored_as_an_int(self, rng):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
        inp = TeleportInput("qftN", payloads, np.int64(2))
        assert type(inp.n_receivers) is int and inp.n_receivers == 2
        t = run_teleportation(inp, seed=0)
        assert t.protocol == "teleportation:qftN:n=2"
        assert all(f == pytest.approx(1.0, abs=1e-10) for f in t.outcomes["fidelities"].values())

    def test_receiver_label_override(self, rng):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
        lock = gates.qft(2)
        branches = enumerate_teleportation_with_lock(payloads, lock, receiver_labels=("R1", "R2"))
        assert branches[0].pre_unlock_state.labels == ("R1", "R2")
        # the sender names are internal, so receivers may take them too
        renamed = enumerate_teleportation_with_lock(payloads, lock, receiver_labels=("A1", "A2"))
        assert renamed[0].pre_unlock_state.labels == ("A1", "A2")
        assert [b.fidelities for b in renamed] == [b.fidelities for b in branches]
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


def test_both_entry_points_refuse_payloads_of_more_than_one_qubit(rng):
    one = random_state(rng, 1, ("p",))
    two = random_state(rng, 2, ("x", "y"))
    message = "^payloads must be single-qubit states$"
    with pytest.raises(ValueError, match=message):
        TeleportInput("qftN", (two, one), 2)
    with pytest.raises(ValueError, match=message):
        enumerate_teleportation_with_lock((two, one), gates.qft(2))
    with pytest.raises(ValueError, match=message):
        enumerate_teleportation_with_lock((one, two), gates.lock_operator())


# bare amplitude arrays are not states: both entry points refuse them by name
_BARE_PAYLOADS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))


_BARE_LOCK = "^the lock must be a Unitary, got ndarray$"


def test_enumerator_refuses_a_bare_array_as_the_lock(rng):
    payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
    with pytest.raises(ValueError, match=_BARE_LOCK):
        enumerate_teleportation_with_lock(payloads, gates.qft(2).entries)


def test_dense_run_refuses_a_bare_array_as_the_lock():
    with pytest.raises(ValueError, match=_BARE_LOCK):
        run_dense_coding_with_lock("bell", (0, 1), (1, 0), gates.qft(2).entries)


def test_teleport_input_refuses_bare_arrays_as_payloads():
    with pytest.raises(ValueError, match="^payloads must be single-qubit states$"):
        TeleportInput("qftN", _BARE_PAYLOADS, 2)


def test_enumerator_refuses_bare_arrays_as_payloads():
    with pytest.raises(ValueError, match="^payloads must be single-qubit states$"):
        enumerate_teleportation_with_lock(_BARE_PAYLOADS, gates.qft(2))


class TestBranchStatesOnAccess:
    """A branch holds its row of the enumeration's two tables and builds its states when read."""

    STATES = ("pre_unlock_state", "corrected_state")

    @staticmethod
    def _branches(rng, n=3):
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        return enumerate_teleportation_with_lock(payloads, random_unitary(rng, n))

    def test_states_are_read_only_rows_of_one_table_each(self, rng):
        branches, again = self._branches(rng), self._branches(rng)
        tables = [t.amplitudes for t in branches[0].tables]
        assert not np.shares_memory(*tables)
        for table, other, field in zip(tables, again[0].tables, self.STATES):
            assert table.shape == (64, 8)
            assert not table.flags.writeable
            assert not np.shares_memory(table, other.amplitudes)
            for row, br in enumerate(branches):
                assert br.row == row
                assert br.tables is branches[0].tables
                state = getattr(br, field)
                assert not state.amplitudes.flags.writeable
                assert np.shares_memory(state.amplitudes, table)
                assert np.array_equal(state.amplitudes, table[row])

    @pytest.mark.parametrize("n", range(1, MAX_RECEIVERS + 1))
    def test_the_tables_are_the_two_halves_of_one_block(self, rng, n):
        tables = [t.amplitudes for t in self._branches(rng, n)[0].tables]
        block = tables[0].base
        assert block.shape == (2, 4**n, 1 << n)
        assert block.flags.c_contiguous
        for half, table in enumerate(tables):
            assert table.base is block
            assert table.shape == block[half].shape
            assert table.ctypes.data == block[half].ctypes.data
            assert table.flags.c_contiguous
            assert not table.flags.writeable

    def test_reading_a_state_twice_gives_the_same_state(self, rng):
        for br in self._branches(rng):
            assert br.receivers == br.pre_unlock_state.labels == ("B1", "B2", "B3")
            for field in self.STATES:
                first, second = getattr(br, field), getattr(br, field)
                assert first.labels == second.labels
                assert np.array_equal(first.amplitudes, second.amplitudes)

    @pytest.mark.parametrize(
        "name",
        [
            "results",
            "probability",
            "pre_unlock_state",
            "corrected_state",
            "fidelities",
            "row",
            "tables",
            "receivers",
            "unknown",
        ],
    )
    def test_no_attribute_can_be_assigned(self, rng, name):
        br = self._branches(rng, n=1)[0]
        with pytest.raises(AttributeError):
            setattr(br, name, None)


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

    def test_matches_reference_walk_for_five_receivers_under_the_fourier_lock(self):
        rng = np.random.default_rng(20)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(5))
        self.assert_same_branches(payloads, gates.qft(5), None)

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


GOLDEN = Path(__file__).resolve().parent / "golden" / "enumerate_sha256.json"

# The pinned enumerations, as ``lock:payloads:n=N``: every size under the Fourier
# lock, the identity and one seeded Haar lock, each with seeded Haar payloads and
# with basis-state payloads, whose exact zeros pin the sign bits of zero amplitudes
_GOLDEN_CASES = [
    f"{lock}:{kind}:n={n}"
    for n in range(1, MAX_RECEIVERS + 1)
    for lock in ("qft", "identity", "haar")
    for kind in ("haar", "basis")
]


def enumeration_digests(case: str) -> dict[str, str]:
    """The sha256 of each output of one pinned enumeration, by part name."""
    lock_name, kind, size = case.split(":")
    n = int(size.removeprefix("n="))
    rng = np.random.default_rng(2600 + n)
    lock = random_unitary(rng, n) if lock_name == "haar" else getattr(gates, lock_name)(n)
    if kind == "haar":
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
    else:
        payloads = tuple(StateVector(np.eye(2)[i % 2], (f"p{i}",)) for i in range(n))
    branches = enumerate_teleportation_with_lock(payloads, lock)
    parts = {
        "pre_unlock": branches[0].tables[0].amplitudes,
        "corrected": branches[0].tables[1].amplitudes,
        "probabilities": np.array([b.probability for b in branches]),
        "fidelities": np.array([b.fidelities for b in branches]),
        "rows": np.array([b.row for b in branches], dtype=np.int64),
        "results": np.array([b.results for b in branches], dtype=np.int64),
    }
    return {name: hashlib.sha256(part.tobytes()).hexdigest() for name, part in parts.items()}


def _golden_enumerations() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_covers_every_pinned_enumeration():
    assert sorted(_golden_enumerations()) == sorted(_GOLDEN_CASES)


@pytest.mark.parametrize("case", _GOLDEN_CASES)
def test_enumeration_outputs_match_their_golden_digests(case):
    # both tables, every probability, fidelity, row and result, bit for bit
    assert enumeration_digests(case) == _golden_enumerations()[case]


def test_correction_digit_table_is_derived_once():
    # the rows are read off the encoder stack at import; they are right only
    # because every encoder is a signed permutation with +-1 entries
    for bits, entries in zip(states.family("bell").members, gates._ENCODER_STACK):
        encoder = gates.pauli_encoder(bits).entries
        assert np.array_equal(entries, encoder)
        assert set(encoder.ravel().tolist()) <= {0, 1, -1}
        assert np.array_equal(abs(encoder) @ abs(encoder).T, np.eye(2))
    src, sign = protocols._DIGIT_SOURCE, protocols._DIGIT_SIGN
    assert src.tolist() == [[0, 1], [0, 1], [1, 0], [1, 0]]
    assert sign.tolist() == [[1, 1], [1, -1], [1, 1], [1, -1]]
    assert (src.dtype, sign.dtype) == (np.uint8, np.int8)
    assert not (src.flags.writeable or sign.flags.writeable)
    assert not gates._ENCODER_STACK.flags.writeable


def test_unlock_is_the_conjugate_not_the_adjoint(rng):
    lock = random_unitary(rng, 2)
    unlock = protocols._unlock(lock)
    assert np.array_equal(unlock.entries, lock.entries.conj())
    # the dense adjoint differs from the teleportation unlock
    adjoint = gates.adjoint(lock)
    assert np.array_equal(adjoint.entries, lock.entries.conj().T)
    assert not np.allclose(adjoint.entries, unlock.entries)


# the named schemes, one (scheme, receivers) layout each
_NAMED_LAYOUTS = [("ulock2", 2)] + [("qftN", n) for n in range(1, MAX_RECEIVERS + 1)]


@pytest.mark.parametrize("scheme,n", _NAMED_LAYOUTS)
def test_a_named_layout_is_built_once_with_a_read_only_lock(scheme, n):
    labels, lock = protocols._teleport_layout(scheme, n)
    assert protocols._teleport_layout(scheme, n)[1] is lock
    assert not lock.entries.flags.writeable
    want = gates.lock_operator() if scheme == "ulock2" else gates.qft(n)
    assert lock is want
    assert lock.entries.tobytes() == want.entries.tobytes()
    assert labels == (("B", "C") if scheme == "ulock2" else tuple(f"B{i + 1}" for i in range(n)))


def test_the_unlock_is_kept_on_its_lock(rng):
    lock = random_unitary(rng, 3)
    unlock = protocols._unlock(lock)
    assert protocols._unlock(lock) is unlock
    assert np.array_equal(unlock.entries, lock.entries.conj())
    assert not unlock.entries.flags.writeable
    # another lock with the same entries keeps its own
    assert protocols._unlock(Unitary(lock.entries)) is not unlock


@pytest.mark.parametrize("n", range(1, MAX_RECEIVERS + 1))
def test_correction_tables_are_kept_read_only_and_match_the_expansion(n):
    cols, signs = protocols._correction_tables(n)
    again = protocols._correction_tables(n)
    assert again[0] is cols and again[1] is signs
    assert (cols.dtype, signs.dtype) == (np.uint8, np.int8)
    assert not (cols.flags.writeable or signs.flags.writeable)
    want_cols, want_signs = expanded_corrections(n)
    assert np.array_equal(cols, want_cols)
    assert np.array_equal(signs, want_signs)


@pytest.mark.parametrize("n", range(1, 5))
def test_correction_tables_are_the_products_of_the_receivers_encoders(n):
    # branch b's row of the tables is the signed permutation that its results'
    # encoders, one per receiver, make together
    cols, signs = protocols._correction_tables(n)
    for b, results in enumerate(protocols._branch_results(n)):
        product = np.eye(1)
        for bits in results:
            product = np.kron(product, gates.pauli_encoder(bits).entries)
        want = np.zeros_like(product)
        want[np.arange(1 << n), cols[b]] = signs[b]
        assert np.array_equal(product, want)


@pytest.mark.parametrize("n", range(1, MAX_RECEIVERS + 1))
def test_the_corrected_table_is_the_gather_of_the_unlock_product(n):
    # corrected in place a block of rows at a time, bit for bit the one gather
    # over the whole unlocked table
    rng = np.random.default_rng(300 + n)
    payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
    lock = random_unitary(rng, n)
    tables = enumerate_teleportation_with_lock(payloads, lock)[0].tables
    pre, corrected = (t.amplitudes for t in tables)
    want = gathered_corrections(pre @ lock.entries.conj().T)
    assert corrected.tobytes() == want.tobytes()


def test_records_are_teleport_branches_as_make_builds_them(rng):
    assert protocols.TeleportBranch._fields == (
        "results",
        "probability",
        "fidelities",
        "row",
        "tables",
    )
    branches = enumerate_teleportation_with_lock(
        tuple(random_state(rng, 1, (f"p{i}",)) for i in range(3)), random_unitary(rng, 3)
    )
    for br in branches:
        made = protocols.TeleportBranch._make(
            (br.results, br.probability, br.fidelities, br.row, br.tables)
        )
        assert type(br) is protocols.TeleportBranch
        assert br == made
        assert repr(br) == repr(made)
        assert br._asdict() == made._asdict()


@pytest.mark.parametrize("scheme,n", [("ulock2", 2), ("qftN", 4)])
def test_a_repeat_run_of_a_named_scheme_builds_no_gate(rng, monkeypatch, scheme, n):
    inp = TeleportInput(scheme, tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n)), n)
    first = enumerate_teleportation(inp)
    run_teleportation(inp, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("a gate was built")

    monkeypatch.setattr(gates, "qft", refuse)
    monkeypatch.setattr(gates, "lock_operator", refuse)
    monkeypatch.setattr(Unitary, "__post_init__", refuse)
    again = enumerate_teleportation(inp)
    assert [(b.results, b.probability, b.fidelities) for b in again] == [
        (b.results, b.probability, b.fidelities) for b in first
    ]
    assert run_teleportation(inp, seed=5).outcomes["results"]


@pytest.mark.parametrize("scheme,n", [("ulock2", 2), ("qftN", 3), ("qftN", MAX_RECEIVERS)])
def test_a_wrong_unlock_fails_after_the_right_one_is_kept(rng, monkeypatch, scheme, n):
    inp = TeleportInput(scheme, tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n)), n)
    assert min(min(b.fidelities) for b in enumerate_teleportation(inp)) >= 1 - ATOL
    monkeypatch.setattr(protocols, "_unlock", lambda u: gates.identity(u.n_qubits))
    assert min(min(b.fidelities) for b in enumerate_teleportation(inp)) < 1 - ATOL


# (lock, receivers) read off the lock against the phi/tensor/apply chain
_PAIR_CASES = [
    (name, n) for n in range(1, MAX_RECEIVERS + 1) for name in ("qft", "identity", "haar0", "haar1")
]
_PAIR_CASES += [("ulock", 2), ("cnot", 2)]


@pytest.mark.parametrize("name,n", _PAIR_CASES)
def test_locked_pairs_match_the_phi_tensor_apply_chain(monkeypatch, name, n):
    named = {"qft": gates.qft, "identity": gates.identity}
    if name in named:
        lock = named[name](n)
    elif name.startswith("haar"):
        lock = random_unitary(np.random.default_rng(100 * n + int(name[4:])), n)
    else:
        lock = {"ulock": gates.lock_operator, "cnot": gates.cnot}[name]()
    a_labels = tuple(f"A{i + 1}" for i in range(n))
    r_labels = ("B", "C") if n == 2 else tuple(f"B{i + 1}" for i in range(n))
    shared, locked, matrix = shared_pairs(lock, a_labels, r_labels)
    pairs = protocols._locked_pairs(n, lock)
    assert pairs.tobytes() == np.ascontiguousarray(matrix).tobytes()
    # the snapshots of steps 0 and 1 are the payloads tensored with the chain's
    # pairs, sign bits of the zeros included; any lock runs as a named layout
    rng = np.random.default_rng(n)
    payloads = tuple(random_state(rng, 1, (f"T{i + 1}",)) for i in range(n))
    monkeypatch.setattr(protocols, "_teleport_layout", lambda scheme, k: (r_labels, lock))
    t = run_teleportation(TeleportInput("qftN", payloads, n), seed=n)
    product = functools.reduce(tensor, payloads)
    for step, chain in (("step0_init", shared), ("step1_lock", locked)):
        got, want = t.step_state(step), tensor(product, chain)
        assert got.labels == want.labels
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
    # Phi(0,0)^N is I / sqrt(2^N) with sender rows, so the locked pairs are U / sqrt(2^N)
    assert_allclose(pairs, lock.entries / np.sqrt(2**n), rtol=0, atol=1e-15)


def test_pair_scale_is_a_product_taken_in_order():
    assert protocols._PAIR_SCALES[:2] == (1 / np.sqrt(2.0), 0.4999999999999999)


def test_an_enumeration_builds_no_register(rng, monkeypatch):
    n = 3
    payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
    lock = random_unitary(rng, n)

    def refuse(*args, **kwargs):
        raise AssertionError("a register was built")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    monkeypatch.setattr(protocols, "_snapshot_register", refuse)
    monkeypatch.setattr(qlinalg, "tensor", refuse)
    for module in (protocols, qlinalg):
        monkeypatch.setattr(module, "apply", refuse)
    branches = enumerate_teleportation_with_lock(payloads, lock)
    assert len(branches) == 4**n
    assert branches[-1].corrected_state.labels == ("B1", "B2", "B3")


def test_alternating_locks_enumerate_as_fresh_copies(rng):
    # nothing carries over from one enumeration to the next: interleaved
    # enumerations with two locks match, bit for bit, ones with a fresh copy of each lock
    locks = (gates.qft(2), random_unitary(rng, 2))
    payloads = [tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2)) for _ in range(4)]
    for k, pair in enumerate(payloads):
        lock = locks[k % 2]
        got = enumerate_teleportation_with_lock(pair, lock)
        want = enumerate_teleportation_with_lock(pair, Unitary(lock.entries))
        assert [(b.results, b.probability, b.fidelities) for b in got] == [
            (b.results, b.probability, b.fidelities) for b in want
        ]
        for g, w in zip(got[0].tables, want[0].tables):
            assert g.amplitudes.tobytes() == w.amplitudes.tobytes()


def test_bell_readout_is_built_once():
    readout = protocols._BELL_READOUT
    members = [m.amplitudes.conj() for m in states.family("bell").members.values()]
    assert np.array_equal(readout, np.reshape(members, (4, 2, 2)))
    assert not readout.flags.writeable


def test_enumerator_refuses_an_empty_payload_tuple():
    message = r"^0 receivers requested; the enumerator takes 1\.\.6 receivers$"
    with pytest.raises(ValueError, match=message):
        enumerate_teleportation_with_lock((), gates.identity(1))


@pytest.mark.parametrize("n_lock", [1, 3])
def test_enumerator_refuses_a_lock_of_another_size(rng, n_lock):
    payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(2))
    d = 1 << n_lock
    with pytest.raises(ValueError, match=f"^the lock must act on 2 sender qubits, got a {d}x{d} matrix$"):
        enumerate_teleportation_with_lock(payloads, gates.qft(n_lock))


def test_enumerator_refuses_duplicate_receiver_labels_before_building_a_table(rng, monkeypatch):
    calls = []
    for name in ("_locked_pairs", "_readouts"):

        def spy(*args, _name=name, _original=getattr(protocols, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(protocols, name, spy)
    payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(6))
    message = re.escape("duplicate qubit labels: ('B', 'B', 'B', 'B', 'B', 'B')")
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_teleportation_with_lock(payloads, gates.qft(6), ("B",) * 6)
    # the label count is still refused first
    with pytest.raises(ValueError, match="^6 receivers need 6 receiver labels, got "):
        enumerate_teleportation_with_lock(payloads, gates.qft(6), ("B",) * 5)
    assert calls == []


# (lock name, receivers) for the fidelity-stage tests: qft and a Haar lock at
# every size, and the Hadamard--CNOT lock at its one size
_FIDELITY_CASES = [(name, n) for n in range(1, MAX_RECEIVERS + 1) for name in ("qft", "haar")]
_FIDELITY_CASES.append(("ulock", 2))


class TestFidelityBasisChange:
    """The fidelities from one change into the payloads' basis against the strided sums."""

    @pytest.mark.parametrize("name,n", _FIDELITY_CASES)
    def test_matches_the_strided_sum_per_payload(self, name, n):
        rng = np.random.default_rng(1000 + n)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        branches = enumerate_teleportation_with_lock(payloads, _lock(name, n, rng))
        want = strided_fidelities(branches[0].tables[1].amplitudes, payloads)
        assert_allclose([b.fidelities for b in branches], want, rtol=0, atol=1e-14)

    def test_payloads_normalised_only_to_atol_keep_their_fidelity(self, rng):
        # a payload's squared norm may sit up to ATOL from one; its fidelity is
        # still <p|rho|p>, and the other receivers' payloads do not scale it
        payloads = []
        for i, scale in enumerate((1 + 4e-11, 1 - 4e-11, 1.0)):
            amps = random_state(rng, 1).amplitudes * np.sqrt(scale)
            payloads.append(StateVector(amps, (f"p{i}",)))
        branches = enumerate_teleportation_with_lock(payloads, random_unitary(rng, 3))
        want = strided_fidelities(branches[0].tables[1].amplitudes, payloads)
        assert_allclose([b.fidelities for b in branches], want, rtol=0, atol=1e-14)
        # the corrected rows are the normalised payload product, so F_i = |p_i|^2
        norms = np.broadcast_to([1 + 4e-11, 1 - 4e-11, 1.0], want.shape)
        assert_allclose(want, norms, rtol=0, atol=1e-14)

    def test_payload_basis_is_unitary_with_each_payload_as_its_first_row(self, rng):
        payloads = [random_state(rng, 1) for _ in range(3)]
        basis, sq_norms = protocols._payload_basis(payloads)
        assert_allclose(basis @ basis.conj().T, np.eye(8), rtol=0, atol=1e-15)
        assert_allclose(sq_norms, 1.0, rtol=0, atol=1e-15)
        # row 0 is <p_1 p_2 p_3|, row 7 is <p_1^perp p_2^perp p_3^perp|
        product = payloads[0].amplitudes
        for p in payloads[1:]:
            product = np.kron(product, p.amplitudes)
        assert_allclose(basis[0], product.conj(), rtol=0, atol=1e-15)
        assert abs(basis[7] @ product) < 1e-15

    def test_mask_marks_each_receivers_payload_columns_once_read_only(self):
        mask = protocols._payload_mask(2)
        assert protocols._payload_mask(2) is mask
        assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        assert not mask.flags.writeable

    def test_one_call_peaks_at_three_tables_and_keeps_two_and_its_records(self, rng):
        # traced memory above the call's entry: the table is built inside the
        # returned block and the unlock product is corrected in place a block
        # of rows at a time, so the peak is the two returned tables, the records
        # and small temporaries (2.61 tables), and what stays is the two tables
        # and the records
        n = MAX_RECEIVERS
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        lock = gates.qft(n)
        enumerate_teleportation_with_lock(payloads, lock)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            branches = enumerate_teleportation_with_lock(payloads, lock)
            retained, peak = (size - entry for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        table_bytes = branches[0].tables[0].amplitudes.nbytes
        assert peak <= 2.7 * table_bytes
        records = sys.getsizeof(branches) + sum(
            sum(map(sys.getsizeof, (br, br.probability, br.fidelities, br.row, *br.fidelities)))
            for br in branches
        )
        assert retained <= 2 * table_bytes + records

    @pytest.mark.parametrize("n", range(3, MAX_RECEIVERS + 1))
    def test_a_wrong_unlock_still_fails_at_the_benchmark_sizes(self, n, monkeypatch):
        rng = np.random.default_rng(2009 + n)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        lock = random_unitary(rng, n)
        monkeypatch.setattr(protocols, "_unlock", gates.adjoint)
        branches = enumerate_teleportation_with_lock(payloads, lock)
        assert min(min(b.fidelities) for b in branches) < 1 - ATOL


_WARM_FAULTS = """
import resource
import numpy as np
from simulq import gates
from simulq.protocols import enumerate_teleportation_with_lock
from simulq.qlinalg import StateVector

rng = np.random.default_rng(29)
amps = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
amps /= np.linalg.norm(amps, axis=1, keepdims=True)
payloads = [StateVector(a, (f"p{i}",)) for i, a in enumerate(amps)]
lock = gates.qft(6)
for _ in range(2):
    enumerate_teleportation_with_lock(payloads, lock)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    enumerate_teleportation_with_lock(payloads, lock)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap reuse is glibc malloc's")
def test_warm_n6_enumerations_take_no_page_faults():
    """Five warm ``N = 6`` enumerations in a fresh interpreter fault in no new pages.

    Both returned tables are one 8 MiB block, and glibc's malloc keeps that
    memory in its heap between calls, where the next call finds it; separate
    4 MiB tables were handed back to the kernel and faulted in afresh by each
    call.  Whether freed memory is kept follows the allocator's own dynamic
    thresholds, so the test runs on glibc only, with its default thresholds
    (no ``MALLOC_*`` variables) and one BLAS thread.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(
        PYTHONPATH=str(Path(protocols.__file__).resolve().parents[1]),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_FAULTS],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert int(proc.stdout) < 100


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

    def test_snapshots_are_read_only_and_match_the_outer_product_path(self, rng, monkeypatch):
        # each sampled snapshot is written once and handed to a one-row table;
        # its bits are those of the outer product, reordered and then copied
        # by the StateVector constructor
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(3))
        inp = TeleportInput("qftN", payloads, 3)
        got = run_teleportation(inp, seed=5)
        # built now, before the patches: each snapshot is built when it is read
        got_steps = got.steps
        monkeypatch.setattr(
            protocols,
            "_ungrouped_outer",
            lambda rows, cols, order: qlinalg._ungrouped(np.outer(rows, cols), order),
        )
        monkeypatch.setattr(
            protocols, "_StateTable", lambda table, labels: [StateVector(table[0], labels)]
        )
        want = run_teleportation(inp, seed=5)
        for (name, g), (_, w) in zip(got_steps, want.steps):
            assert not g.amplitudes.flags.writeable, name
            assert g.labels == w.labels
            assert g.amplitudes.tobytes() == w.amplitudes.tobytes(), name

    def test_matches_full_register_sampler_for_six_receivers(self):
        rng = np.random.default_rng(2009)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(6))
        self.assert_same_run(TeleportInput("qftN", payloads, 6), 2009)


class TestRecordedSeed:
    """A run records the integer seed it drew from, and ``None`` for a ready generator."""

    @staticmethod
    def runs(seed):
        """A dense and a teleportation run, each given a fresh ``seed()``."""
        payloads = tuple(random_state(np.random.default_rng(6), 1, (f"p{i}",)) for i in range(3))
        return (
            run_dense_coding_with_lock("bell", (1, 0), (0, 1), gates.qft(2), seed=seed()),
            run_teleportation(TeleportInput("qftN", payloads, 3), seed=seed()),
        )

    @pytest.mark.parametrize(
        "seed, drawn", [(np.int64(5), 5), (np.uint8(5), 5), (True, 1), (False, 0), (7, 7)]
    )
    def test_an_integer_seed_is_recorded_as_the_int_it_draws_from(self, seed, drawn):
        for got, want in zip(self.runs(lambda: seed), self.runs(lambda: drawn)):
            assert type(got.seed) is int
            assert got.seed == drawn
            assert got.to_dict(include_snapshots=True) == want.to_dict(include_snapshots=True)

    def test_a_generator_is_recorded_as_null(self):
        for got, want in zip(self.runs(lambda: np.random.default_rng(5)), self.runs(lambda: 5)):
            assert got.seed is None
            assert {**got.to_dict(), "seed": 5} == want.to_dict()


class TestLazySnapshots:
    """A sampled teleportation run builds each 3N-qubit snapshot when it is read, once."""

    @staticmethod
    def run(n, seed=8):
        rng = np.random.default_rng(seed)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        return run_teleportation(TeleportInput("qftN", payloads, n), seed=seed)

    def test_names_intercepts_and_outcomes_build_no_snapshot(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a snapshot was built")

        # every snapshot's builder is bound as its step is recorded
        monkeypatch.setattr(protocols, "_snapshot_register", refuse)
        t = self.run(6)
        data = t.to_dict()
        assert [step["name"] for step in data["steps"]] == list(TELEPORT_STEPS)
        assert len(data["intercepts"]) == 6
        with pytest.raises(AssertionError, match="a snapshot was built"):
            t.step_state("step0_init")
        with pytest.raises(KeyError, match="steps are \\['step0_init'"):
            t.step_state("step9_profit")

    def test_repeated_reads_return_the_same_read_only_snapshots(self):
        t = self.run(3)
        first = t.steps
        again = t.steps
        assert [name for name, _ in first] == list(TELEPORT_STEPS)
        for (name, snap), (_, same) in zip(first, again):
            assert snap is same, name
            assert t.step_state(name) is snap
            assert not snap.amplitudes.flags.writeable, name
        # the classical send changes no qubit: steps 2 and 3 share one snapshot
        assert t.step_state("step2_bsm") is t.step_state("step3_classical_send")

    def test_each_builder_runs_once(self, monkeypatch):
        t = self.run(3)
        built = []
        outer = protocols._ungrouped_outer
        monkeypatch.setattr(
            protocols, "_ungrouped_outer", lambda *args: built.append(1) or outer(*args)
        )
        for name in reversed(TELEPORT_STEPS):
            t.step_state(name)
        t.steps
        t.to_dict(include_snapshots=True)
        # steps 2 and 3 share one register
        assert len(built) == 5

    @pytest.mark.parametrize("scheme, n", [("qftN", 1), ("qftN", 3), ("qftN", 4), ("ulock2", 2)])
    def test_snapshots_read_last_first_match_the_full_register_sampler(self, scheme, n):
        # each builder binds its step's arrays as the step is recorded, so
        # reading the last step first still gives every step its own register
        rng = np.random.default_rng(100 + n)
        payloads = tuple(random_state(rng, 1, (f"p{i}",)) for i in range(n))
        inp = TeleportInput(scheme, payloads, n)
        got = run_teleportation(inp, seed=n)
        want = sample_teleportation(inp, seed=n)
        for name in reversed(TELEPORT_STEPS):
            g, w = got.step_state(name), want.step_state(name)
            assert g.labels == w.labels, name
            assert_allclose(g.amplitudes, w.amplitudes, rtol=0, atol=1e-12, err_msg=name)

    def test_dense_coding_records_its_registers_built(self):
        # the dense registers are the computation itself, so none is deferred
        t = run_dense_coding_with_lock("w", (1, 0), (0, 1), gates.qft(2), seed=3)
        assert [name for name, _ in t._steps] == list(DENSE_STEPS)
        assert all(isinstance(snap, StateVector) for _, snap in t._steps)


# Every named run: each channel under each named lock, and each scheme at each receiver count
_NAMED_RUNS = [
    *((channel, lock) for channel in CHANNELS for lock in LOCKS),
    ("ulock2", 2),
    *(("qftN", n) for n in range(1, MAX_RECEIVERS + 1)),
]


@pytest.mark.parametrize("name, arg", _NAMED_RUNS)
def test_a_transcript_records_its_engines_steps_in_order(name, arg):
    if name in CHANNELS:
        t = run_dense_coding_with_lock(name, (1, 1), (0, 1), LOCKS[arg], arg, seed=4)
        steps = DENSE_STEPS
    else:
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        payloads = tuple(StateVector(plus, (f"p{i}",)) for i in range(arg))
        t, steps = run_teleportation(TeleportInput(name, payloads, arg), seed=4), TELEPORT_STEPS
    assert tuple(step["name"] for step in t.to_dict()["steps"]) == steps
    assert {stage for stage, _ in t.intercepts} < set(steps)


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

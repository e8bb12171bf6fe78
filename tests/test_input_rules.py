"""The four input rules, each with one home, as every entry point meets them.

A bit follows ``gates.as_bits``, a count ``qlinalg._as_count``, a seed
``measurement.resolve_rng`` and a lock ``protocols._require_lock``;
``tests/test_hygiene.py`` pins that no other function holds a copy.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from simulq import gates, states
from simulq.analysis import LockingReport, classify_locking_unitary, verify_counterexample
from simulq.measurement import MeasurementOutcome, measure_in_family, sample_projective
from simulq.protocols import (
    ProtocolTranscript,
    TeleportInput,
    enumerate_teleportation_with_lock,
    run_dense_coding_with_lock,
    run_teleportation,
)
from simulq.qlinalg import StateVector
from tests.conftest import random_state

# --- bits --------------------------------------------------------------------

MEMBERS = (states.phi, states.ghz, states.w)


@pytest.mark.parametrize("member", MEMBERS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("bit", [1.0, np.float64(0.0)], ids=repr)
def test_a_family_member_refuses_a_float_bit(member, bit):
    for bits in ((bit, 0), (0, bit)):
        with pytest.raises(ValueError, match=f"^bits must be 0 or 1, got {re.escape(repr(bits))}$"):
            member(*bits)


@pytest.mark.parametrize(
    "bit",
    [0, 1, True, np.int8(1), np.uint64(0), 1.0, np.float64(0.0), 2, -1, "1", None, np.True_],
    ids=repr,
)
def test_members_and_encoders_accept_the_same_bits(bit):
    def outcome(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return "accepted"

    want = outcome(lambda: gates.pauli_encoder((bit, 0)))
    assert [outcome(lambda: member(bit, 0)) for member in MEMBERS] == [want] * 3


# --- counts ------------------------------------------------------------------

_HALF = np.eye(2) / 2
_UP = np.diag([1.0, 0.0])


@pytest.mark.parametrize(
    "shots, message",
    [
        (2.5, "the shot count must be an integer, got 2.5"),
        (True, "the shot count must be an integer, got True"),
        ("3", "the shot count must be an integer, got '3'"),
        (-1, "the shot count must be >= 0, got -1"),
    ],
)
def test_sample_projective_refuses_a_shot_count_that_is_not_a_count(shots, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_projective(_HALF, _UP, shots, 0)


def test_sample_projective_takes_a_numpy_count_and_zero_shots():
    got = sample_projective(_HALF, _UP, np.int64(7), 3)
    assert got.tolist() == sample_projective(_HALF, _UP, 7, 3).tolist()
    assert sample_projective(_HALF, _UP, 0, 3).shape == (0,)


# --- seeds -------------------------------------------------------------------

_PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), ("p",))
_RANDOM_PAIR = random_state(np.random.default_rng(3), 2)

# Every public entry point that takes a seed, called on an input whose draws the seed decides
SEEDED = {
    "run_dense_coding_with_lock": lambda seed: run_dense_coding_with_lock(
        "bell", (1, 0), (0, 1), gates.qft(2), seed=seed
    ),
    "run_teleportation": lambda seed: run_teleportation(
        TeleportInput("qftN", (_PLUS, _PLUS), 2), seed=seed
    ),
    "measure_in_family": lambda seed: measure_in_family(
        _RANDOM_PAIR, states.family("bell"), ("q0", "q1"), seed
    ),
    "verify_counterexample": lambda seed: verify_counterexample(seed),
    "sample_projective": lambda seed: sample_projective(_HALF, _UP, 8, seed),
}

_DEFAULT_RNG = np.random.default_rng


@pytest.mark.parametrize("entry", SEEDED)
@pytest.mark.parametrize("seed", [2.7, "5", np.True_, -1], ids=repr)
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_before_any_draw(
    entry, seed, monkeypatch
):
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args))
    message = f"the seed must be a Generator or a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SEEDED[entry](seed)
    assert made == []


def _plain(result):
    """An entry point's result as plain data, without a transcript's recorded seed."""
    if isinstance(result, ProtocolTranscript):
        return {**result.to_dict(include_snapshots=True), "seed": "any"}
    if isinstance(result, LockingReport):
        return result.to_dict()
    if isinstance(result, MeasurementOutcome):
        return result.label, result.probability, result.post_state.amplitudes.tolist()
    return result.tolist()


def _drawn(entry, seed, monkeypatch):
    """``entry(seed)`` as plain data, and the end state of the generator it drew from."""
    made = []
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(_DEFAULT_RNG(s)) or made[-1])
    result = SEEDED[entry](seed)
    rng = seed if isinstance(seed, np.random.Generator) else made[0]
    return _plain(result), rng.bit_generator.state


@pytest.mark.parametrize("entry", SEEDED)
@pytest.mark.parametrize("seed, same", [(np.int64(5), 5), (True, 1), (np.uint8(0), False)], ids=repr)
def test_an_integer_seed_draws_as_the_int_it_equals(entry, seed, same, monkeypatch):
    assert _drawn(entry, seed, monkeypatch) == _drawn(entry, same, monkeypatch)


@pytest.mark.parametrize("entry", SEEDED)
def test_a_ready_generator_is_drawn_from_as_its_seed_would_be(entry, monkeypatch):
    assert _drawn(entry, _DEFAULT_RNG(5), monkeypatch) == _drawn(entry, 5, monkeypatch)


# --- locks -------------------------------------------------------------------

# Every public entry point that takes a lock: its sender qubit count, and a call with the lock
LOCKED = {
    "run_dense_coding_with_lock": (
        2,
        lambda lock: run_dense_coding_with_lock("bell", (0, 0), (0, 0), lock),
    ),
    "enumerate_teleportation_with_lock": (
        3,
        lambda lock: enumerate_teleportation_with_lock((_PLUS,) * 3, lock),
    ),
    "classify_locking_unitary": (2, lambda lock: classify_locking_unitary(lock, "dense_coding")),
}


@pytest.mark.parametrize("entry", LOCKED)
def test_every_lock_entry_point_refuses_a_lock_of_another_size_alike(entry):
    n, call = LOCKED[entry]
    for k in (1, n + 1):
        d = 1 << k
        message = f"^the lock must act on {n} sender qubits, got a {d}x{d} matrix$"
        with pytest.raises(ValueError, match=message):
            call(gates.qft(k))


def test_a_one_receiver_lock_is_named_in_the_singular():
    message = "^the lock must act on 1 sender qubit, got a 4x4 matrix$"
    with pytest.raises(ValueError, match=message):
        enumerate_teleportation_with_lock((_PLUS,), gates.qft(2))

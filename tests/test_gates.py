from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simulq import gates, protocols
from simulq.qlinalg import Unitary
from tests.qft_oracle import qft_outer_exp, qft_per_entry

QFT2_LITERAL = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ]
)

LOCK_LITERAL = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ]
) / np.sqrt(2.0)


@pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_encoder_is_built_once_and_read_only(bits):
    enc = gates.pauli_encoder(bits)
    assert gates.pauli_encoder(gates.EncodedBits(*bits)) is enc
    assert gates.named_gate(f"u{bits[0]}{bits[1]}") is enc
    with pytest.raises(ValueError):
        enc.entries[0, 0] = 0.0


def test_encoder_literals():
    assert_allclose(gates.pauli_encoder((0, 0)).entries, np.eye(2))
    assert_allclose(gates.pauli_encoder((0, 1)).entries, [[1, 0], [0, -1]])
    assert_allclose(gates.pauli_encoder((1, 0)).entries, [[0, 1], [1, 0]])
    assert_allclose(gates.pauli_encoder((1, 1)).entries, [[0, 1], [-1, 0]])


def test_encoder_11_squares_to_minus_identity():
    u = gates.pauli_encoder((1, 1)).entries
    assert_allclose(u @ u, -np.eye(2))


def test_encoder_rejects_bad_bits():
    with pytest.raises(ValueError):
        gates.pauli_encoder((0, 2))
    with pytest.raises(ValueError):
        gates.pauli_encoder("xy")


@pytest.mark.parametrize(
    "bits", [(0.7, 1), ("1", 0), (1, 1.0), (0, "0"), (np.float64(1.0), 0), (None, 1), (0, 2)]
)
def test_bits_must_be_integers_0_or_1(bits):
    with pytest.raises(ValueError, match=r"bits must be 0 or 1, got "):
        gates.as_bits(bits)


@pytest.mark.parametrize("bits", [5, (0,), (0, 1, 1), None])
def test_bits_must_be_a_pair(bits):
    with pytest.raises(ValueError, match=f"^expected a pair of bits, got {re.escape(repr(bits))}$"):
        gates.as_bits(bits)


def test_dense_engine_rejects_non_bits():
    with pytest.raises(ValueError, match=r"bits must be 0 or 1, got \(0\.7, 1\)"):
        protocols.run_dense_coding_with_lock("bell", (0.7, 1), ("1", 0), gates.qft(2))


def test_bits_accept_integer_types():
    bits = gates.as_bits((np.int64(1), False))
    assert bits == (1, 0)
    assert all(type(b) is int for b in bits)


def test_adjoint_is_built_once_per_unitary():
    u = gates.qft(2)
    inverse = gates.adjoint(u)
    assert gates.adjoint(u) is inverse
    assert np.array_equal(inverse.entries, u.entries.conj().T)
    assert gates.adjoint(Unitary(gates.qft(2).entries)) is not inverse


def test_qft2_literal_is_exact():
    assert np.array_equal(gates.qft(2).entries, QFT2_LITERAL)


def test_qft1_is_hadamard():
    assert np.array_equal(gates.qft(1).entries, gates.hadamard().entries)


@pytest.mark.parametrize("n", range(1, 7))
def test_qft_unitarity(n):
    u = gates.qft(n).entries
    assert_allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-12)


def test_qft_rejects_zero_qubits():
    with pytest.raises(ValueError):
        gates.qft(0)


@pytest.mark.parametrize("n", range(1, 10))
def test_qft_matches_per_entry_oracle_bitwise(n):
    # float64 views, so a -0.0 where the oracle has 0.0 fails too
    got = gates.qft(n).entries.view(np.float64)
    want = qft_per_entry(n).entries.view(np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(1, gates.MAX_GATE_QUBITS + 1))
def test_qft_root_table_matches_one_exp_per_entry_bitwise(n):
    # the 2^n scaled roots, gathered, give the bits of the 4^n-entry exp
    got = gates.qft(n).entries
    want = qft_outer_exp(n)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("gate", [gates.qft, gates.identity])
def test_sized_gates_are_capped(gate):
    assert gates.MAX_GATE_QUBITS == 10
    with pytest.raises(ValueError, match="11 qubits requested; .* capped at 10 qubits"):
        gate(11)


# every command-line gate name with its qubit count (None for a fixed gate)
_ENCODER_NAMES = ("u00", "u01", "u10", "u11")
_NAMED = [(name, None) for name in _ENCODER_NAMES + ("hadamard", "cnot", "ulock")]
_NAMED += [(name, n) for name in ("qft", "identity") for n in range(1, gates.MAX_GATE_QUBITS + 1)]
_CONSTRUCTORS = {
    "hadamard": gates.hadamard,
    "cnot": gates.cnot,
    "ulock": gates.lock_operator,
    "qft": gates.qft,
    "identity": gates.identity,
}


def test_every_command_line_gate_is_listed():
    assert {name for name, _ in _NAMED} == set(gates._NAMED_GATES)


@pytest.mark.parametrize("name,n", _NAMED)
def test_a_named_gate_is_built_and_checked_once(monkeypatch, name, n):
    # a fresh table, so the count does not depend on which test ran first
    monkeypatch.setattr(gates, "_GATES", {})
    checked = []
    check = Unitary.__post_init__
    monkeypatch.setattr(Unitary, "__post_init__", lambda self: checked.append(self) or check(self))
    gate = gates.named_gate(name, n)
    assert gates.named_gate(name, n) is gate
    if name in _CONSTRUCTORS:
        args = () if n is None else (n,)
        assert _CONSTRUCTORS[name](*args) is gate
    # the Pauli encoders are built at import, every other gate on its first request
    assert checked == ([] if name in _ENCODER_NAMES else [gate])
    assert not gate.entries.flags.writeable
    with pytest.raises(ValueError):
        gate.entries[0, 0] = 0.0


@pytest.mark.parametrize("gate", [gates.qft, gates.identity])
@pytest.mark.parametrize("n", [0, 11])
def test_a_refused_size_is_refused_on_every_call(gate, n):
    for _ in range(3):
        with pytest.raises(ValueError):
            gate(n)
        with pytest.raises(ValueError):
            gates.named_gate(gate.__name__, n)
    assert (gate.__name__, n) not in gates._GATES


@pytest.mark.parametrize("gate", [gates.qft, gates.identity])
@pytest.mark.parametrize("n", [True, 2.0, "3"])
def test_a_qubit_count_must_be_an_integer(gate, n):
    message = f"^the qubit count must be an integer, got {re.escape(repr(n))}$"
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            gate(n)
        # the equal ints are kept now, and still not found
        gate(1)
        gate(2)


def test_a_numpy_qubit_count_is_keyed_as_an_int():
    assert gates.qft(np.int64(3)) is gates.qft(3)
    assert gates.identity(np.uint8(2)) is gates.identity(2)
    assert all(type(n) is int for _, n in gates._GATES)


def test_lock_operator_literal():
    assert_allclose(gates.lock_operator().entries, LOCK_LITERAL)


def test_lock_operator_is_hadamard_then_cnot():
    composed = np.kron(gates.hadamard().entries, np.eye(2)) @ gates.cnot().entries
    assert np.array_equal(gates.lock_operator().entries, composed)


def test_adjoint_inverts():
    u = gates.qft(3)
    assert_allclose(gates.adjoint(u).entries @ u.entries, np.eye(8), atol=1e-12)


class TestNamedGate:
    def test_fixed_names(self):
        assert_allclose(gates.named_gate("ulock").entries, LOCK_LITERAL)
        assert_allclose(gates.named_gate("u10").entries, [[0, 1], [1, 0]])

    def test_sized_names(self):
        assert gates.named_gate("qft", 3).dim == 8
        assert_allclose(gates.named_gate("identity", 2).entries, np.eye(4))

    def test_sized_gate_requires_count(self):
        with pytest.raises(ValueError):
            gates.named_gate("qft")

    def test_fixed_gate_rejects_count(self):
        with pytest.raises(ValueError):
            gates.named_gate("cnot", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gates.named_gate("toffoli")

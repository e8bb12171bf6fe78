from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simulq import gates, protocols
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
    assert gates.adjoint(gates.qft(2)) is not inverse


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

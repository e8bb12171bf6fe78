"""Gate constructors: Pauli encoders, Fourier transform, locking operators.

All matrices follow the big-endian bit convention of :mod:`simulq.qlinalg`,
so they can be compared entry-by-entry against their printed forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qlinalg import Unitary, _as_count


class EncodedBits(NamedTuple):
    """A two-bit classical message ``(x, y)``."""

    x: int
    y: int


def as_bits(bits) -> EncodedBits:
    """A ``(x, y)`` pair of 0/1 integers as :class:`EncodedBits`.

    Each bit must be an integer (``int``, ``bool`` or a numpy integer) equal
    to 0 or 1; a float or a string is rejected, not converted.
    """
    try:
        x, y = bits
    except (TypeError, ValueError):
        raise ValueError(f"expected a pair of bits, got {bits!r}") from None
    if not all(isinstance(b, (int, np.integer)) and b in (0, 1) for b in (x, y)):
        raise ValueError(f"bits must be 0 or 1, got {bits!r}")
    return EncodedBits(int(x), int(y))


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# message (x, y) -> single-qubit encoder:  I, sigma_z, sigma_x, sigma_z.sigma_x,
# each built and validated once; a Unitary's entries are read-only, so every
# caller can share it
_ENCODERS = {
    EncodedBits(0, 0): Unitary(np.eye(2)),
    EncodedBits(0, 1): Unitary(_SIGMA_Z),
    EncodedBits(1, 0): Unitary(_SIGMA_X),
    EncodedBits(1, 1): Unitary(_SIGMA_Z @ _SIGMA_X),  # [[0, 1], [-1, 0]]
}

# The Pauli frame: the encoders' entries as one read-only (4, 2, 2) stack, in message order
_ENCODER_STACK = np.array([u.entries for u in _ENCODERS.values()])
_ENCODER_STACK.setflags(write=False)


def pauli_encoder(bits) -> Unitary:
    """The single-qubit encoder carrying the message ``(x, y)``.

    ``(0,0) -> I``, ``(0,1) -> sigma_z``, ``(1,0) -> sigma_x``,
    ``(1,1) -> sigma_z sigma_x``.  Every call for one message returns the
    same read-only object.
    """
    return _ENCODERS[as_bits(bits)]


# Largest qubit count ``qft`` and ``identity`` build: a 2**10 x 2**10 complex
# matrix is 16 MB, and each qubit more quadruples it.
MAX_GATE_QUBITS = 10

# exp(2 pi i q/4) for q = 0..3, exact
_AXIS_ROOTS = np.array((1.0, 1.0j, -1.0, -1.0j))


def _gate_qubits(n_qubits) -> int:
    """A sized gate's qubit count as an ``int``: an integer in 1..MAX_GATE_QUBITS.

    A ``bool``, a float or a string is refused before any lookup: the gate
    table is keyed by equality, so ``True`` or ``2.0`` would find the gate of
    ``1`` or ``2``.  A numpy integer is accepted and keyed as an ``int``.
    """
    n = _as_count(n_qubits, "qubit count")
    if n < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n}")
    if n > MAX_GATE_QUBITS:
        raise ValueError(
            f"{n} qubits requested; qft and identity are capped at {MAX_GATE_QUBITS} qubits"
        )
    return n


def _fourier(dim: int) -> np.ndarray:
    """The Fourier matrix of dimension ``dim``, its entries gathered from ``dim`` scaled roots."""
    k = np.arange(dim)
    roots = np.exp(2j * np.pi * k / dim)
    quarter, rem = np.divmod(4 * k, dim)
    on_axis = rem == 0
    roots[on_axis] = _AXIS_ROOTS[quarter[on_axis]]
    roots /= np.sqrt(dim)
    return roots[np.outer(k, k) % dim]


# name -> the entries of that gate at a given dimension; ``_gate`` builds each
# (name, qubits) once
_ENTRIES = {
    "qft": _fourier,
    "identity": np.eye,
    "hadamard": lambda dim: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    "cnot": lambda dim: np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    "ulock": lambda dim: np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    )
    / np.sqrt(2.0),
}

# (name, qubits) -> the named gate, built and checked by ``Unitary`` on its
# first request in a process; a Unitary's entries are read-only, so every
# caller can share it, and the inverses kept on it (``adjoint``,
# ``protocols._unlock``) with it.  Only requested sizes are built.
_GATES: dict[tuple[str, int], Unitary] = {}


def _gate(name: str, n_qubits: int) -> Unitary:
    """The gate ``name`` on ``n_qubits`` qubits (an ``int`` already checked), built once."""
    gate = _GATES.get((name, n_qubits))
    if gate is None:
        gate = _GATES[name, n_qubits] = Unitary(_ENTRIES[name](1 << n_qubits))
    return gate


def qft(n_qubits: int) -> Unitary:
    """The quantum Fourier transform on ``n_qubits`` qubits (1 to ``MAX_GATE_QUBITS``).

    Entry ``(k, j)`` is ``omega**(j*k) / sqrt(2**n)`` with
    ``omega = exp(2 pi i / 2**n)``; for one qubit this is the Hadamard.
    Roots of unity on the real or imaginary axis are exact, so the one- and
    two-qubit matrices reproduce their printed forms with no rounding dust.
    Each of the ``2**n`` scaled roots is computed once and gathered by
    ``j*k mod 2**n``.  Every call for one size returns the same read-only
    object.
    """
    return _gate("qft", _gate_qubits(n_qubits))


def lock_operator() -> Unitary:
    """The Hadamard--CNOT locking operator on two sender qubits.

    Equal to ``(H x I) . CNOT`` with the first qubit as control:

        1/sqrt(2) * [[1, 0, 0,  1],
                     [0, 1, 1,  0],
                     [1, 0, 0, -1],
                     [0, 1, -1, 0]]

    Every call returns the same read-only object.
    """
    return _gate("ulock", 2)


def hadamard() -> Unitary:
    """The single-qubit Hadamard gate; every call returns the same read-only object."""
    return _gate("hadamard", 1)


def cnot() -> Unitary:
    """CNOT with the first qubit as control, second as target.

    Every call returns the same read-only object.
    """
    return _gate("cnot", 2)


def identity(n_qubits: int = 1) -> Unitary:
    """The identity on ``n_qubits`` qubits (1 to ``MAX_GATE_QUBITS``).

    Every call for one size returns the same read-only object.
    """
    return _gate("identity", _gate_qubits(n_qubits))


def adjoint(u: Unitary) -> Unitary:
    """The Hermitian adjoint (inverse) of a unitary.

    It is built once per ``u`` and kept on it, so every dense coding run and
    every repeat of a dense lock verdict under one lock share one inverse.
    A ``Unitary`` cannot change after its check, so the kept inverse stays
    valid for as long as ``u`` lives.
    """
    kept = u.__dict__.get("_adjoint")
    if kept is None:
        kept = u.__dict__["_adjoint"] = Unitary(u.entries.conj().T)
    return kept


# Gates addressable by name from the command line: the sized ones take a
# qubit count, at most ``MAX_GATE_QUBITS``; every other name is fixed.
_NAMED_GATES = {
    "u00": lambda: pauli_encoder((0, 0)),
    "u01": lambda: pauli_encoder((0, 1)),
    "u10": lambda: pauli_encoder((1, 0)),
    "u11": lambda: pauli_encoder((1, 1)),
    "hadamard": hadamard,
    "cnot": cnot,
    "ulock": lock_operator,
    "qft": qft,
    "identity": identity,
}
_SIZED_GATES = {"qft", "identity"}


def named_gate(name: str, n_qubits: int | None = None) -> Unitary:
    """Look up a gate by its command-line name.

    ``qft`` and ``identity`` take a qubit count, at most ``MAX_GATE_QUBITS``;
    every other name is fixed:
    ``u00 u01 u10 u11 hadamard cnot ulock``.
    """
    build = _NAMED_GATES.get(name)
    if build is None:
        known = sorted(_NAMED_GATES.keys() - _SIZED_GATES) + sorted(_SIZED_GATES)
        raise ValueError(f"unknown gate {name!r}; known gates: {', '.join(known)}")
    if name in _SIZED_GATES:
        if n_qubits is None:
            raise ValueError(f"gate {name!r} requires a qubit count")
        return build(n_qubits)
    if n_qubits is not None:
        raise ValueError(f"gate {name!r} does not take a qubit count")
    return build()

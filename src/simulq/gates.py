"""Gate constructors: Pauli encoders, Fourier transform, locking operators.

All matrices follow the big-endian bit convention of :mod:`simulq.qlinalg`,
so they can be compared entry-by-entry against their printed forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qlinalg import Unitary, _derived


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


def _gate_dim(n_qubits: int) -> int:
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_qubits > MAX_GATE_QUBITS:
        raise ValueError(
            f"{n_qubits} qubits requested; qft and identity are capped at {MAX_GATE_QUBITS} qubits"
        )
    return 1 << n_qubits


def qft(n_qubits: int) -> Unitary:
    """The quantum Fourier transform on ``n_qubits`` qubits (1 to ``MAX_GATE_QUBITS``).

    Entry ``(k, j)`` is ``omega**(j*k) / sqrt(2**n)`` with
    ``omega = exp(2 pi i / 2**n)``; for one qubit this is the Hadamard.
    Roots of unity on the real or imaginary axis are exact, so the one- and
    two-qubit matrices reproduce their printed forms with no rounding dust.
    """
    dim = _gate_dim(n_qubits)
    k = np.arange(dim)
    num = np.outer(k, k) % dim
    roots = np.exp(2j * np.pi * num / dim)
    quarter, rem = np.divmod(4 * num, dim)
    on_axis = rem == 0
    roots[on_axis] = _AXIS_ROOTS[quarter[on_axis]]
    return Unitary(roots / np.sqrt(dim))


def lock_operator() -> Unitary:
    """The Hadamard--CNOT locking operator on two sender qubits.

    Equal to ``(H x I) . CNOT`` with the first qubit as control:

        1/sqrt(2) * [[1, 0, 0,  1],
                     [0, 1, 1,  0],
                     [1, 0, 0, -1],
                     [0, 1, -1, 0]]
    """
    mat = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    ) / np.sqrt(2.0)
    return Unitary(mat)


def hadamard() -> Unitary:
    """The single-qubit Hadamard gate."""
    return Unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def cnot() -> Unitary:
    """CNOT with the first qubit as control, second as target."""
    return Unitary(
        np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
    )


def identity(n_qubits: int = 1) -> Unitary:
    """The identity on ``n_qubits`` qubits (1 to ``MAX_GATE_QUBITS``)."""
    return Unitary(np.eye(_gate_dim(n_qubits)))


def adjoint(u: Unitary) -> Unitary:
    """The Hermitian adjoint (inverse) of a unitary.

    It is built once per ``u`` and kept on it, so the 16 dense runs of a lock
    verdict share one inverse.
    """
    return _derived(u, "_adjoint", lambda v: Unitary(v.entries.conj().T))


# Gates addressable by name from the command line.
_SIZED_GATES = {"qft", "identity"}


def named_gate(name: str, n_qubits: int | None = None) -> Unitary:
    """Look up a gate by its command-line name.

    ``qft`` and ``identity`` take a qubit count, at most ``MAX_GATE_QUBITS``;
    every other name is fixed:
    ``u00 u01 u10 u11 hadamard cnot ulock``.
    """
    fixed = {
        "u00": lambda: pauli_encoder((0, 0)),
        "u01": lambda: pauli_encoder((0, 1)),
        "u10": lambda: pauli_encoder((1, 0)),
        "u11": lambda: pauli_encoder((1, 1)),
        "hadamard": hadamard,
        "cnot": cnot,
        "ulock": lock_operator,
    }
    if name in fixed:
        if n_qubits is not None:
            raise ValueError(f"gate {name!r} does not take a qubit count")
        return fixed[name]()
    if name in _SIZED_GATES:
        if n_qubits is None:
            raise ValueError(f"gate {name!r} requires a qubit count")
        return qft(n_qubits) if name == "qft" else identity(n_qubits)
    known = sorted(fixed) + sorted(_SIZED_GATES)
    raise ValueError(f"unknown gate {name!r}; known gates: {', '.join(known)}")

"""Test-only reference for the quantum Fourier transform.

``qft_per_entry`` is the constructor ``simulq.gates.qft`` used before it
built the matrix with array operations: one ``_unit_root`` call per entry,
with the roots on the real or imaginary axis written exactly.  It takes
seconds at ten qubits but states each entry directly, so the tests require
``gates.qft`` to equal it bit for bit.

``qft_outer_exp`` is the array constructor ``gates.qft`` used before it
gathered its entries from one table of ``2^n`` roots: one complex ``exp``
over all ``4^n`` exponents ``j*k mod 2^n``, with the axis roots written
exactly and every entry divided by ``sqrt(2^n)``.  It is fast enough to
compare against at ten qubits.
"""

from __future__ import annotations

import numpy as np

from simulq.qlinalg import Unitary


def _unit_root(num: int, den: int) -> complex:
    """``exp(2 pi i num/den)``, exact when the root lies on an axis."""
    num %= den
    if (4 * num) % den == 0:
        return (1.0, 1.0j, -1.0, -1.0j)[(4 * num) // den]
    return complex(np.exp(2j * np.pi * num / den))


_AXIS_ROOTS = np.array((1.0, 1.0j, -1.0, -1.0j))


def qft_outer_exp(n_qubits: int) -> np.ndarray:
    """The Fourier matrix on ``n_qubits`` qubits, one ``exp`` per entry of its ``4^n`` exponents."""
    dim = 1 << n_qubits
    k = np.arange(dim)
    num = np.outer(k, k) % dim
    roots = np.exp(2j * np.pi * num / dim)
    quarter, rem = np.divmod(4 * num, dim)
    on_axis = rem == 0
    roots[on_axis] = _AXIS_ROOTS[quarter[on_axis]]
    return roots / np.sqrt(dim)


def qft_per_entry(n_qubits: int) -> Unitary:
    """The quantum Fourier transform on ``n_qubits`` qubits.

    Entry ``(k, j)`` is ``omega**(j*k) / sqrt(2**n)`` with
    ``omega = exp(2 pi i / 2**n)``; for one qubit this is the Hadamard.
    Roots of unity on the real or imaginary axis are exact, so the one- and
    two-qubit matrices reproduce their printed forms with no rounding dust.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    dim = 1 << n_qubits
    mat = np.array(
        [[_unit_root(j * k, dim) for j in range(dim)] for k in range(dim)]
    ) / np.sqrt(dim)
    return Unitary(mat)

from __future__ import annotations

import sys

import numpy as np
import pytest

from simulq.qlinalg import DensityMatrix, StateVector, Unitary


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the normal test report."""
    lines: list[str] = []
    for mod in list(sys.modules.values()):
        for line in getattr(mod, "ACCEPTANCE_LINES", ()):
            if line not in lines:
                lines.append(line)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, n_qubits, labels=None) -> StateVector:
    dim = 1 << n_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    if labels is None:
        labels = tuple(f"q{i}" for i in range(n_qubits))
    return StateVector(vec, labels)


def random_density(rng, n_qubits, labels=None) -> DensityMatrix:
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    if labels is None:
        labels = tuple(f"q{i}" for i in range(n_qubits))
    return DensityMatrix(rho, labels)


def random_unitary(rng, n_qubits) -> Unitary:
    """A Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    dim = 1 << n_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return Unitary(q * (d / np.abs(d)))

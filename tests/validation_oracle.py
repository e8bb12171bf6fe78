"""Test-only references for the stacked state and density validators.

``checked_states`` and ``checked_densities`` are ``simulq.qlinalg``'s
``_checked_states`` and ``_checked_densities`` as they were before the
validators learned to read non-finite entries off quantities they compute
anyway and to check a single row or matrix with scalar arithmetic.  Each
check is a separate stack reduction, in the order the constructors document,
so the differential tests require the fast validators to raise the same
exception with the same message on every input, and to accept the same ones.

``grouped_order`` and ``ungrouping_permutation`` are the register layout
that ``qlinalg._grouped`` and ``qlinalg._ungrouped`` computed on every call
before they read it from a memo.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from simulq.qlinalg import ATOL


def check_labels(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(str(lbl) for lbl in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate qubit labels: {out}")
    return out


def checked_states(table: np.ndarray, labels: Iterable[str]) -> tuple[str, ...]:
    labels = check_labels(labels)
    if not np.isfinite(table).all():
        raise ValueError("amplitudes contains non-finite entries")
    width = table.shape[1]
    if width != 1 << len(labels):
        raise ValueError(
            f"{len(labels)} labels require {1 << len(labels)} amplitudes, got {width}"
        )
    flat = np.ascontiguousarray(table, dtype=np.complex128).view(np.float64)
    nrm2 = np.einsum("ij,ij->i", flat, flat)
    dev = np.abs(nrm2 - 1.0)
    worst = dev.argmax()
    if dev[worst] > ATOL:
        raise ValueError(f"state is not normalized: sum|amp|^2 = {float(nrm2[worst])!r}")
    return labels


def checked_densities(stack: np.ndarray, labels: Iterable[str]) -> tuple[str, ...]:
    labels = check_labels(labels)
    if not np.isfinite(stack).all():
        raise ValueError("entries contains non-finite entries")
    dim = 1 << len(labels)
    if stack.shape[1:] != (dim, dim):
        raise ValueError(
            f"{len(labels)} labels require a {dim}x{dim} matrix, got {stack.shape[1:]}"
        )
    if np.abs(stack - stack.conj().swapaxes(1, 2)).max() > ATOL:
        raise ValueError("density matrix is not Hermitian")
    tr = stack.trace(axis1=1, axis2=2)
    dev = np.abs(tr - 1.0)
    worst = dev.argmax()
    if dev[worst] > ATOL:
        raise ValueError(f"density matrix has trace {complex(tr[worst])!r}, expected 1")
    if np.linalg.eigvalsh(stack)[:, 0].min() < -ATOL:
        raise ValueError("density matrix has a negative eigenvalue")
    return labels


def grouped_order(n: int, axes) -> list[int]:
    return list(axes) + [i for i in range(n) if i not in axes]


def ungrouping_permutation(order) -> np.ndarray:
    return np.argsort(order)

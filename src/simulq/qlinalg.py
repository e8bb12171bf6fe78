"""Dense complex linear algebra on labeled qubit registers.

States, density matrices and gates are thin immutable wrappers around
``numpy`` arrays.  The bit convention is big-endian throughout: the first
label of a register owns the most significant bit of the amplitude index,
so for a two-qubit register ``|01>`` sits at index 1 and a printed 4x4
matrix acts on amplitudes ordered ``00, 01, 10, 11``.

Registers are never reordered.  Every operation addresses qubits by label
and returns its result on the input's register order.  Inside, an
operation on k target qubits views the register as a ``2^k x 2^(n-k)``
matrix, targets first and the rest in register order: :func:`_grouped`
builds that view and :func:`_ungrouped` undoes it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: tolerance for closed-form comparisons, state invariants, unitarity and support overlaps
ATOL = 1e-10
#: strict tolerance: the basis families' Gram check and the counterexample's support overlap
ATOL_STRICT = 1e-12

# Reduced density matrices are dense; refuse to materialize anything
# larger than this many kept qubits (2**10 x 2**10 complex entries).
_MAX_KEEP_QUBITS = 10


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


def _as_complex_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    _require_finite(arr, name)
    return arr


def _check_labels(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(str(lbl) for lbl in labels)
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate qubit labels: {out}")
    return out


def _checked_states(table: np.ndarray, labels: Iterable[str]) -> tuple[str, ...]:
    """Validate a ``(k, 2^n)`` complex table of state amplitudes, one state per row.

    Every row gets the checks of one ``StateVector``, in this order: distinct
    labels, finite entries, ``2^n`` amplitudes and ``sum|amp|^2 = 1`` within
    ``ATOL``.  A norm failure reports the row furthest from one.  Returns the
    labels.

    The squared norms come first, each row's as one dot product of a float64
    view of its real and imaginary parts (no ``|amp|^2`` temporary).  Their
    sum is finite only when every entry is, so the entrywise ``isfinite`` pass
    runs only when it is not, to tell non-finite entries from squares that
    overflow.  A single row is then judged with scalar arithmetic on its one
    norm, which is the number a stack would report.
    """
    labels = _check_labels(labels)
    flat = np.ascontiguousarray(table, dtype=np.complex128).view(np.float64)
    nrm2 = np.einsum("ij,ij->i", flat, flat)
    single = len(nrm2) == 1
    if not math.isfinite(nrm2[0] if single else nrm2.sum()):
        _require_finite(table, "amplitudes")
    width = table.shape[1]
    if width != 1 << len(labels):
        raise ValueError(
            f"{len(labels)} labels require {1 << len(labels)} amplitudes, got {width}"
        )
    worst = 0 if single else np.abs(nrm2 - 1.0).argmax()
    if abs(nrm2[worst] - 1.0) > ATOL:
        raise ValueError(f"state is not normalized: sum|amp|^2 = {float(nrm2[worst])!r}")
    return labels


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state on an ordered, labeled qubit register."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        labels = _checked_states(amps[None], self.labels)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown qubit label {label!r}; register is {self.labels}"
            ) from None


class _StateTable:
    """A ``(k, 2^n)`` complex amplitude table, one state per row, checked once.

    The table is validated with the constructor's checks and messages and
    then frozen in place, so the caller hands it over.  ``table[i]`` is the
    ``StateVector`` of row ``i``, built when asked for: its amplitudes are a
    read-only view of the row, with no copy and no check repeated.
    """

    __slots__ = ("amplitudes", "labels")

    def __init__(self, table: np.ndarray, labels: Iterable[str]) -> None:
        self.labels = _checked_states(table, labels)
        table.setflags(write=False)
        self.amplitudes = table

    def __getitem__(self, row: int) -> StateVector:
        state = object.__new__(StateVector)
        object.__setattr__(state, "amplitudes", self.amplitudes[row])
        object.__setattr__(state, "labels", self.labels)
        return state


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, positive semidefinite, trace-one operator on a register.

    Checked in this order: distinct labels, finite entries, shape ``2^n x 2^n``,
    Hermitian and trace one within ``ATOL``, no eigenvalue below ``-ATOL``."""

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.entries, dtype=np.complex128)
        labels = _check_labels(self.labels)
        _require_finite(mat, "entries")
        dim = 1 << len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"{len(labels)} labels require a {dim}x{dim} matrix, got {mat.shape}")
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = mat.trace()
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix has trace {complex(tr)!r}, expected 1")
        if np.linalg.eigvalsh(mat)[0] < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Unitary:
    """A unitary matrix on an unspecified register of k qubits."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _as_complex_array(self.entries, "entries")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 2 or dim & (dim - 1):
            raise ValueError(f"unitary dimension must be a power of two, got {dim}")
        dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
        if dev > ATOL:
            raise ValueError(
                f"matrix is not unitary: max|U^H U - I| = {dev:.3g} exceeds ATOL = {ATOL:g}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states on the register ``a.labels + b.labels``.

    Label collisions are rejected.  The product is one broadcast multiply,
    with ``np.kron``'s products and none of its per-call overhead.
    """
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    amplitudes = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return StateVector(amplitudes, a.labels + b.labels)


@functools.lru_cache(maxsize=1024)
def _layout(n: int, axes: tuple[int, ...]):
    """The grouped layout of an ``n``-qubit register whose rows run over ``axes``.

    Returns the axis order (``axes``, then the other axes in register
    order), its inverse permutation and the ``2^k x 2^(n-k)`` matrix shape.
    Every layout is computed once; the register operations ask for a
    handful, so the memo stays far below its bound.
    """
    order = axes + tuple(i for i in range(n) if i not in axes)
    inverse = tuple(np.argsort(order).tolist())
    return order, inverse, (1 << len(axes), 1 << (n - len(axes)))


def _grouped(amplitudes: np.ndarray, axes: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The register as a ``2^k x 2^(n-k)`` matrix whose rows run over ``axes``.

    Rows index the k qubits at ``axes`` in the given order, columns the other
    qubits in register order.  Also returns that axis order, which
    :func:`_ungrouped` takes to put the amplitudes back.
    """
    n = amplitudes.size.bit_length() - 1
    order, _, shape = _layout(n, tuple(axes))
    return amplitudes.reshape((2,) * n).transpose(order).reshape(shape), order


def _ungrouped(matrix: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Flat register-order amplitudes of a matrix laid out as :func:`_grouped` lays it."""
    n = len(order)
    return matrix.reshape((2,) * n).transpose(_layout(n, tuple(order))[1]).reshape(-1)


def _ungrouped_outer(rows: np.ndarray, cols: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """``_ungrouped(np.outer(rows, cols), order)``, built as one array.

    Each product is written straight to its register-order place, so no
    outer product is held and no copy is made: the result is the only
    array allocated, with the same bits.
    """
    n, k = len(order), rows.size.bit_length() - 1
    flat = np.empty(rows.size * cols.size, dtype=np.result_type(rows, cols))
    np.multiply(
        rows.reshape((2,) * k + (1,) * (n - k)),
        cols.reshape((1,) * k + (2,) * (n - k)),
        out=flat.reshape((2,) * n).transpose(order),
    )
    return flat


def _target_axes(state: StateVector, targets: Sequence[str]) -> tuple[int, ...]:
    targets = tuple(targets)
    if not targets:
        raise ValueError("no target qubits given")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target labels: {targets}")
    return tuple(state.axis_of(t) for t in targets)


def apply(state: StateVector, gate: Unitary, targets: Sequence[str]) -> StateVector:
    """Apply ``gate`` to the listed target qubits of ``state``.

    The i-th qubit of the gate matrix acts on ``targets[i]``; the register
    order of the state is unchanged.
    """
    axes = _target_axes(state, targets)
    k = len(axes)
    if gate.dim != 1 << k:
        raise ValueError(
            f"gate dimension {gate.dim} does not fit {k} target qubit(s)"
        )
    psi, order = _grouped(state.amplitudes, axes)
    return StateVector(_ungrouped(gate.entries @ psi, order), state.labels)


def partial_trace(obj: StateVector, keep: Iterable[str]) -> DensityMatrix:
    """Trace out every qubit of a state not in ``keep``.

    ``keep`` is a set of labels; the result register keeps the original
    relative label order.
    """
    if not isinstance(obj, StateVector):
        raise TypeError(f"cannot take a partial trace of {type(obj).__name__}")
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one qubit")
    unknown = keep_set - set(obj.labels)
    if unknown:
        raise ValueError(f"unknown qubit label(s) {sorted(unknown)}; register is {obj.labels}")
    keep_axes = tuple(i for i, label in enumerate(obj.labels) if label in keep_set)
    if len(keep_axes) > _MAX_KEEP_QUBITS:
        raise ValueError(
            f"refusing to build a reduced matrix on {len(keep_axes)} qubits;"
            f" at most {_MAX_KEEP_QUBITS} qubits can be kept"
        )
    psi, _ = _grouped(obj.amplitudes, keep_axes)
    return DensityMatrix(psi @ psi.conj().T, tuple(obj.labels[i] for i in keep_axes))


def contract(
    state: StateVector, bra: np.ndarray, targets: Sequence[str]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Contract ``<bra|`` against the target qubits of ``state``.

    ``bra`` holds the ``2^k`` amplitudes of a ket on the targets, or a
    ``(m, 2^k)`` stack of them, one per row; each is conjugated here.
    Returns the *unnormalized* residual amplitudes on the remaining qubits,
    one row per bra for a stack, together with their labels (original
    relative order).  The squared norm of a residual is the Born probability
    of projecting onto its bra.

    The register is grouped once per call, and each bra is its own
    vector-matrix product: one stacked matrix product would round
    differently.  A finite complex128 bra is read in place.
    """
    axes = _target_axes(state, targets)
    bra = np.asarray(bra, dtype=np.complex128)
    _require_finite(bra, "bra")
    width = 1 << len(axes)
    if bra.ndim not in (1, 2) or bra.shape[-1] != width:
        raise ValueError(
            f"bra has shape {bra.shape} for {len(axes)} qubit(s);"
            f" expected ({width},) or a stack (m, {width})"
        )
    psi, order = _grouped(state.amplitudes, axes)
    rest = tuple(state.labels[i] for i in order[len(axes):])
    rows = np.atleast_2d(bra).conj()
    residuals = np.empty((len(rows), psi.shape[1]), dtype=np.complex128)
    for row, out in zip(rows, residuals):
        np.matmul(row, psi, out=out)
    return (residuals if bra.ndim == 2 else residuals[0]), rest


def inner(a: StateVector, b: StateVector) -> complex:
    """The inner product ``<a|b>`` (labels must agree)."""
    if a.labels != b.labels:
        raise ValueError(f"label mismatch: {a.labels} vs {b.labels}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(state: StateVector, rho: DensityMatrix) -> float:
    """``<state|rho|state>`` for a pure reference state.

    Dimensions must match; labels are not compared, so a teleported payload
    can be scored against the receiving qubit directly.
    """
    if state.dim != rho.dim:
        raise ValueError(f"dimension mismatch: {state.dim} vs {rho.dim}")
    amp = state.amplitudes
    return float(np.real(amp.conj() @ rho.entries @ amp))


def equal_up_to_global_phase(a: StateVector, b: StateVector) -> bool:
    """True when ``a = exp(i theta) b`` for some phase, within ``ATOL``."""
    if a.labels != b.labels:
        raise ValueError(f"label mismatch: {a.labels} vs {b.labels}")
    ip = np.vdot(b.amplitudes, a.amplitudes)
    phase = ip / abs(ip) if abs(ip) > 0 else 1.0
    return bool(np.linalg.norm(a.amplitudes - phase * b.amplitudes) <= ATOL)


# --- JSON wire format ------------------------------------------------------
#
# Every matrix or vector serializes to
#   {"labels": [...], "shape": [rows, cols], "re": [[...]], "im": [[...]]}
# with row-major nested lists.  State vectors are dumped as column vectors.


def to_wire(obj: StateVector | DensityMatrix | Unitary) -> dict:
    """Serialize a state / density matrix / unitary to the JSON dump format."""
    wire = _wire_arrays(obj)
    wire["re"], wire["im"] = wire["re"].tolist(), wire["im"].tolist()
    return wire


def _wire_arrays(obj: StateVector | DensityMatrix | Unitary) -> dict:
    """:func:`to_wire`'s dict with ``re`` and ``im`` as float64 array views, not lists."""
    if isinstance(obj, StateVector):
        mat = obj.amplitudes.reshape(-1, 1)
        labels = list(obj.labels)
    elif isinstance(obj, DensityMatrix):
        mat = obj.entries
        labels = list(obj.labels)
    elif isinstance(obj, Unitary):
        mat = obj.entries
        labels = []
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {
        "labels": labels,
        "shape": [int(mat.shape[0]), int(mat.shape[1])],
        "re": mat.real,
        "im": mat.imag,
    }


def _jsonable(value, wire):
    """A result value as plain JSON data: containers as dicts and lists, keys
    as strings, numpy scalars as Python ones and matrices as ``wire`` writes
    them (:func:`to_wire`, or :func:`_wire_arrays` for the command line)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v, wire) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, wire) for v in value]
    if isinstance(value, (DensityMatrix, StateVector, Unitary)):
        return wire(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is a number as ``json`` reads one: an ``int`` or a ``float``.

    Strings, booleans and null are not numbers, though numpy would convert
    them.  Both input readers, for ``--states`` amplitudes and for matrices,
    accept their entries by this rule.
    """
    return type(value) in (int, float)


def _as_count(value, what: str) -> int:
    """A count of qubits, receivers or shots as an ``int``; a bool, float or string is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"the {what} must be an integer, got {value!r}")
    return int(value)


def _number_array(values) -> np.ndarray:
    """A float array of a number or of nested lists of numbers (see :func:`_is_number`)."""
    arr = np.array(values, dtype=float)
    for value in np.array(values, dtype=object).reshape(-1):
        if not _is_number(value):
            raise ValueError(f"entries must be JSON numbers, got {value!r}")
    return arr


def unitary_from_wire(data: dict) -> Unitary:
    """A unitary from the wire format or the bare ``{"re", "im"}`` form (``im`` defaults
    to zero); ``labels`` and ``shape`` are checked when present, and not kept."""
    if not isinstance(data, dict) or "re" not in data:
        raise ValueError("malformed matrix payload: expected a JSON object with re/im entries")
    try:
        list(data.get("labels", ()))
        re = _number_array(data["re"])
        im = _number_array(data["im"]) if "im" in data else np.zeros_like(re)
        shape = tuple(int(v) for v in data.get("shape", re.shape))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError(f"re has shape {re.shape} but im has shape {im.shape}")
    if re.shape != shape:
        raise ValueError(f"payload shape {re.shape} does not match declared {shape}")
    return Unitary(re + 1j * im)

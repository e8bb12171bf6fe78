"""Entangled channel states and the orthonormal measurement families.

Three four-member families are used, one per channel type.  Writing
``~x`` for the flipped bit, the ``(x, y)`` members are

* Bell pairs:     ``(|0 x> + (-1)**y |1 ~x>) / sqrt(2)``
* GHZ triples:    ``(|0 x x> + (-1)**y |1 ~x ~x>) / sqrt(2)``
* W-like triples: ``(|x 1 0> + |x 0 1> + (-1)**y sqrt(2) |~x 0 0>) / 2``

Each family is orthonormal and spans a four-dimensional subspace; for the
GHZ and W families that subspace sits strictly inside the eight-dimensional
ambient space.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .gates import as_bits
from .qlinalg import ATOL_STRICT, StateVector, tensor

_SQRT2 = np.sqrt(2.0)

_BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def phi(x: int, y: int, labels=("q0", "q1")) -> StateVector:
    """Bell-family member ``(|0 x> + (-1)**y |1 ~x>) / sqrt(2)``."""
    x, y = as_bits((x, y))
    v = np.zeros(4, dtype=np.complex128)
    v[x] = 1.0 / _SQRT2
    v[2 + (1 - x)] = (-1.0) ** y / _SQRT2
    return StateVector(v, tuple(labels))


def ghz(x: int, y: int, labels=("q0", "q1", "q2")) -> StateVector:
    """GHZ-family member ``(|0 x x> + (-1)**y |1 ~x ~x>) / sqrt(2)``."""
    x, y = as_bits((x, y))
    v = np.zeros(8, dtype=np.complex128)
    v[3 * x] = 1.0 / _SQRT2
    v[4 + 3 * (1 - x)] = (-1.0) ** y / _SQRT2
    return StateVector(v, tuple(labels))


def w(x: int, y: int, labels=("q0", "q1", "q2")) -> StateVector:
    """W-family member ``(|x 1 0> + |x 0 1> + (-1)**y sqrt(2) |~x 0 0>) / 2``."""
    x, y = as_bits((x, y))
    v = np.zeros(8, dtype=np.complex128)
    v[4 * x + 2] = 0.5
    v[4 * x + 1] = 0.5
    v[4 * (1 - x)] = (-1.0) ** y * _SQRT2 / 2.0
    return StateVector(v, tuple(labels))


@dataclass(frozen=True)
class BasisFamily:
    """An orthonormal four-member measurement family.

    ``members`` maps ``(x, y)`` to the member state, in the fixed order
    ``(0,0), (0,1), (1,0), (1,1)``.  The family keeps a read-only copy of the
    mapping it is given, so it cannot change after its check.

    ``bras`` is the members' amplitudes stacked in that order, a read-only
    ``(4, d)`` complex array built once: the bra stack that
    :func:`~simulq.qlinalg.contract` takes (it conjugates each row), and whose
    conjugate every Bell readout and decode check reads.
    """

    name: str
    members: Mapping
    bras: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = MappingProxyType(dict(self.members))
        if tuple(members) != _BIT_PAIRS:
            raise ValueError(f"family members must be keyed by {_BIT_PAIRS}")
        bras = np.array([m.amplitudes for m in members.values()], dtype=np.complex128)
        if np.max(np.abs(bras.conj() @ bras.T - np.eye(4))) > ATOL_STRICT:
            raise ValueError(f"family {self.name!r} is not orthonormal")
        bras.setflags(write=False)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "bras", bras)

    @property
    def ambient_dim(self) -> int:
        """The dimension of the space the members live in."""
        return self.bras.shape[1]


# The member constructor of each channel's family: the one channel -> family map.
_CHANNEL_MEMBERS = {"bell": phi, "ghz": ghz, "w": w}

# Each channel's family, built and checked once: its members are read-only
# states in a read-only mapping, so every caller can share it.
_FAMILIES = {
    name: BasisFamily(name, {xy: member(*xy) for xy in _BIT_PAIRS})
    for name, member in _CHANNEL_MEMBERS.items()
}


def family(name: str) -> BasisFamily:
    """The measurement family of a channel (``bell``, ``ghz``, ``w``).

    Every call for one channel returns the same object.
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known families: {sorted(_CHANNEL_MEMBERS)}"
        ) from None


# Per channel, each receiver's subsystem once the locked qubits arrive: the
# sender qubit A_i plus the receiver's own qubits.  The initial state, the
# protocol steps and the analysis sweeps all read their layout from here.
DENSE_CHANNELS = {
    "bell": {"bob": ("A1", "B"), "charlie": ("A2", "C")},
    "ghz": {"bob": ("A1", "B1", "B2"), "charlie": ("A2", "C1", "C2")},
    "w": {"bob": ("A1", "B1", "B2"), "charlie": ("A2", "C1", "C2")},
}


# Each channel's shared entanglement, built once (a StateVector is read-only).
_INITIAL_STATES = {
    channel: tensor(
        _CHANNEL_MEMBERS[channel](0, 0, layout["bob"]),
        _CHANNEL_MEMBERS[channel](0, 0, layout["charlie"]),
    )
    for channel, layout in DENSE_CHANNELS.items()
}


def initial_state(channel: str) -> StateVector:
    """The shared entanglement before any encoding.

    Two copies of the channel's ``(0, 0)`` member: the first is shared by
    the sender qubit ``A1`` and receiver Bob, the second by ``A2`` and
    receiver Charlie.  Every call for one channel returns the same object.
    """
    if channel not in _INITIAL_STATES:
        *names, last = DENSE_CHANNELS
        raise ValueError(f"unknown channel {channel!r}; expected {', '.join(names)} or {last}")
    return _INITIAL_STATES[channel]


# Named states addressable from the command line: phi00 ... w11.  Each
# prefix is the name of a channel's member constructor.
def named_state(name: str) -> StateVector:
    makers = _CHANNEL_MEMBERS.values()
    for maker in makers:
        prefix = maker.__name__
        if name.startswith(prefix) and len(name) == len(prefix) + 2:
            bits = name[len(prefix):]
            if all(c in "01" for c in bits):
                return maker(int(bits[0]), int(bits[1]))
    known = [f"{m.__name__}{x}{y}" for m in makers for (x, y) in _BIT_PAIRS]
    raise ValueError(f"unknown state {name!r}; known states: {', '.join(known)}")

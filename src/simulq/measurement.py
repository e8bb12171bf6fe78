"""Projective measurement in an orthonormal family, plus support analysis.

Measurement follows the Born rule.  A family whose members span only part
of the ambient space (the GHZ and W families span 4 of 8 dimensions) is a
valid von Neumann measurement only for states inside that span, so any
pre-measurement weight outside it beyond tolerance raises
:class:`ProtocolViolation` -- in a correct protocol run this never happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qlinalg import ATOL, DensityMatrix, StateVector, _ungrouped, contract
from .states import BasisFamily

#: eigenvalues above this count towards the support of a density matrix
SUPPORT_EIGENVALUE_CUTOFF = 1e-9


class ProtocolViolation(RuntimeError):
    """The pre-measurement state has weight outside the family's span."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """One measurement branch: its label, Born probability and post state.

    ``post_state`` is the full register after collapse: the measured qubits
    hold the family member, the rest hold the renormalized residual.
    """

    label: tuple[int, int]
    probability: float
    post_state: StateVector


def resolve_rng(seed) -> np.random.Generator:
    """Accept an integer seed or a ready generator (PCG64 via default_rng)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def _born_weights(rows: np.ndarray, family: BasisFamily, targets: tuple) -> np.ndarray:
    """Born weights of a ``(4, m)`` table of unnormalised outcome rows, in member order.

    Raises :class:`ProtocolViolation` when they fall short of 1 by more than
    ``ATOL``: the state then has weight outside the family's span on ``targets``.
    """
    probs = (np.abs(rows) ** 2).sum(axis=1)
    shortfall = 1.0 - probs.sum()
    if shortfall > ATOL:
        raise ProtocolViolation(
            f"state has weight {shortfall:.3e} outside the span of the"
            f" {family.name!r} family on {targets}"
        )
    return probs


def _born_draw(rows: np.ndarray, family: BasisFamily, targets: tuple, rng):
    """Draw one outcome row of a ``(4, m)`` table by the Born rule.

    Returns the drawn index, its probability and the row normalised.  Both
    samplers draw here: :func:`measure_in_family` and the sampled
    teleportation run, so a seed gives one sequence of outcomes.
    """
    probs = _born_weights(rows, family, targets)
    pick = rng.choice(4, p=probs / probs.sum())
    return pick, float(probs[pick]), rows[pick] / np.linalg.norm(rows[pick])


def _branches(state: StateVector, family: BasisFamily, targets: tuple):
    """The four unnormalised residuals of ``family``'s members on ``targets``, stacked.

    Also returns the residuals' labels, in register order.
    """
    if family.ambient_dim != 1 << len(targets):
        raise ValueError(
            f"family {family.name!r} lives on {family.ambient_dim} dimensions,"
            f" got {len(targets)} target qubit(s)"
        )
    rows = [contract(state, m.amplitudes, targets) for m in family.members.values()]
    return np.array([residual for residual, _ in rows]), rows[0][1]


def _collapse(
    state: StateVector, member: StateVector, row: np.ndarray, targets, rest_labels
) -> StateVector:
    """Reassemble member (x) row in the original register order.

    ``row`` is the normalised residual.  The outer product has the layout of
    ``contract``'s grouped register: rows over ``targets``, columns over
    ``rest_labels``.
    """
    order = tuple(state.axis_of(q) for q in (*targets, *rest_labels))
    return StateVector(_ungrouped(np.outer(member.amplitudes, row), order), state.labels)


def measure_in_family(
    state: StateVector, family: BasisFamily, targets, seed
) -> MeasurementOutcome:
    """Sample one Born-rule outcome of measuring ``targets`` in ``family``."""
    rng = resolve_rng(seed)
    targets = tuple(targets)
    rows, rest_labels = _branches(state, family, targets)
    pick, p, row = _born_draw(rows, family, targets, rng)
    label, member = list(family.members.items())[pick]
    return MeasurementOutcome(label, p, _collapse(state, member, row, targets, rest_labels))


def enumerate_branches(
    state: StateVector, family: BasisFamily, targets
) -> list[MeasurementOutcome]:
    """All measurement branches with probability above tolerance.

    Branches come back in the fixed member order ``(0,0), (0,1), (1,0),
    (1,1)``; probabilities sum to the in-span weight of the state.
    """
    targets = tuple(targets)
    rows, rest_labels = _branches(state, family, targets)
    probs = _born_weights(rows, family, targets)
    return [
        MeasurementOutcome(
            label, p, _collapse(state, member, row / np.linalg.norm(row), targets, rest_labels)
        )
        for (label, member), p, row in zip(family.members.items(), probs.tolist(), rows)
        if p > ATOL
    ]


def support_projector(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support of a density matrix.

    The support is spanned by eigenvectors with eigenvalue above
    ``SUPPORT_EIGENVALUE_CUTOFF``.
    """
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    vals, vecs = np.linalg.eigh(mat)
    cols = vecs[:, vals > SUPPORT_EIGENVALUE_CUTOFF]
    return cols @ cols.conj().T


@dataclass(frozen=True)
class SupportAnalysis:
    """Result of a two-state support comparison.

    ``distinguishable`` means the supports are orthogonal, so the two-outcome
    projective measurement ``{projector, I - projector}`` separates the states
    with certainty.  ``overlap`` records ``tr(rho0 rho1)``.
    """

    distinguishable: bool
    projector: np.ndarray
    overlap: float


def support_distinguisher(rho0, rho1) -> SupportAnalysis:
    """Decide whether two density matrices have orthogonal supports."""
    m0 = rho0.entries if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    m1 = rho1.entries if isinstance(rho1, DensityMatrix) else np.asarray(rho1)
    if m0.shape != m1.shape:
        raise ValueError(f"shape mismatch: {m0.shape} vs {m1.shape}")
    overlap = float(np.real(np.trace(m0 @ m1)))
    return SupportAnalysis(overlap <= ATOL, support_projector(m0), overlap)


def sample_projective(rho: DensityMatrix, projector: np.ndarray, seed) -> bool:
    """One shot of the two-outcome measurement ``{P, I-P}`` on ``rho``.

    Returns True when the ``P`` outcome fires, with probability ``tr(P rho)``.
    """
    rng = resolve_rng(seed)
    p = float((projector @ rho.entries).trace().real)
    p = min(max(p, 0.0), 1.0)
    return bool(rng.random() < p)

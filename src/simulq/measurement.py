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


def _branches(state: StateVector, family: BasisFamily, targets) -> list:
    targets = tuple(targets)
    if family.ambient_dim != 1 << len(targets):
        raise ValueError(
            f"family {family.name!r} lives on {family.ambient_dim} dimensions,"
            f" got {len(targets)} target qubit(s)"
        )
    rows = []
    for label, member in family.members.items():
        residual, rest_labels = contract(state, member.amplitudes, targets)
        p = float(np.sum(np.abs(residual) ** 2))
        rows.append((label, p, member, residual, rest_labels))
    shortfall = 1.0 - sum(r[1] for r in rows)
    if shortfall > ATOL:
        raise ProtocolViolation(
            f"state has weight {shortfall:.3e} outside the span of the"
            f" {family.name!r} family on {targets}"
        )
    return rows


def _collapse(
    state: StateVector, member: StateVector, residual: np.ndarray, targets, rest_labels
) -> StateVector:
    """Reassemble member (x) residual/|residual| in the original register order.

    The outer product has the layout of ``contract``'s grouped register: rows
    over ``targets``, columns over ``rest_labels``.
    """
    order = [state.axis_of(q) for q in (*targets, *rest_labels)]
    full = np.outer(member.amplitudes, residual / np.linalg.norm(residual))
    return StateVector(_ungrouped(full, order), state.labels)


def measure_in_family(
    state: StateVector, family: BasisFamily, targets, seed
) -> MeasurementOutcome:
    """Sample one Born-rule outcome of measuring ``targets`` in ``family``."""
    rng = resolve_rng(seed)
    rows = _branches(state, family, tuple(targets))
    probs = np.array([max(r[1], 0.0) for r in rows])
    pick = rng.choice(len(rows), p=probs / probs.sum())
    label, p, member, residual, rest_labels = rows[pick]
    post = _collapse(state, member, residual, tuple(targets), rest_labels)
    return MeasurementOutcome(label, max(p, 0.0), post)


def enumerate_branches(
    state: StateVector, family: BasisFamily, targets
) -> list[MeasurementOutcome]:
    """All measurement branches with probability above tolerance.

    Branches come back in the fixed member order ``(0,0), (0,1), (1,0),
    (1,1)``; probabilities sum to the in-span weight of the state.
    """
    targets = tuple(targets)
    out = []
    for label, p, member, residual, rest_labels in _branches(state, family, targets):
        if p > ATOL:
            post = _collapse(state, member, residual, targets, rest_labels)
            out.append(MeasurementOutcome(label, p, post))
    return out


def support_projector(
    rho: DensityMatrix | np.ndarray, cutoff: float = SUPPORT_EIGENVALUE_CUTOFF
) -> np.ndarray:
    """Orthogonal projector onto the support of a density matrix.

    The support is spanned by eigenvectors with eigenvalue above ``cutoff``.
    """
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    vals, vecs = np.linalg.eigh(mat)
    cols = vecs[:, vals > cutoff]
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
    p = float(np.real(np.trace(projector @ rho.entries)))
    p = min(max(p, 0.0), 1.0)
    return bool(rng.random() < p)

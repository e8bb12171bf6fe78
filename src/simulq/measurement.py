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

from .qlinalg import ATOL, DensityMatrix, StateVector, _as_count, _ungrouped_outer, contract
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
    """A ready generator as given, or PCG64 seeded by a non-negative ``int``, ``bool``
    (``True`` as 1) or numpy integer.  Any other seed is refused here, before any draw."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"the seed must be a Generator or a non-negative integer, got {seed!r}")
    return np.random.default_rng(int(seed))


def _born_weights(rows: np.ndarray, family: BasisFamily, targets: tuple) -> np.ndarray:
    """Born weights of a ``(4, m)`` table of unnormalised outcome rows, in member order.

    A ``(..., 4, m)`` stack of tables gives each table's weights, in one
    ``(..., 4)`` array.  Raises :class:`ProtocolViolation` when a table's
    weights fall short of 1 by more than ``ATOL``: its state then has weight
    outside the family's span on ``targets``.  The message gives the first
    such table's shortfall, in the stack's C order.
    """
    probs = (np.abs(rows) ** 2).sum(axis=-1)
    shortfall = 1.0 - probs.sum(axis=-1)
    short = shortfall > ATOL
    if short.any():
        raise ProtocolViolation(
            f"state has weight {np.extract(short, shortfall)[0]:.3e} outside the span of the"
            f" {family.name!r} family on {targets}"
        )
    return probs


def _born_draw(rows: np.ndarray, family: BasisFamily, targets: tuple, rng):
    """Draw one outcome row of a ``(4, m)`` table by the Born rule.

    Returns the drawn index, its probability and the row normalised.  Both
    samplers draw here: :func:`measure_in_family` and the sampled
    teleportation run, so a seed gives one sequence of outcomes.

    The draw is the one ``rng.choice(4, p=p)`` makes, without its argument
    checks: one ``rng.random()`` looked up in the cumulative sum of ``p``
    scaled to end at 1.  So it takes the same outcome and leaves the
    generator in the same state.
    """
    probs = _born_weights(rows, family, targets)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    pick = int(cdf.searchsorted(rng.random(), side="right"))
    return pick, float(probs[pick]), rows[pick] / np.linalg.norm(rows[pick])


def _branches(state: StateVector, family: BasisFamily, targets: tuple):
    """The four unnormalised residuals of ``family``'s members on ``targets``, stacked.

    One :func:`~simulq.qlinalg.contract` call on the family's read-only bra
    stack: the register is grouped once and each member's residual is its own
    row product.  Also returns the residuals' labels, in register order.
    """
    if family.ambient_dim != 1 << len(targets):
        raise ValueError(
            f"family {family.name!r} lives on {family.ambient_dim} dimensions,"
            f" got {len(targets)} target qubit(s)"
        )
    return contract(state, family.bras, targets)


def _collapse(
    state: StateVector, member: StateVector, row: np.ndarray, targets, rest_labels
) -> StateVector:
    """Reassemble member (x) row in the original register order.

    ``row`` is the normalised residual.  The outer product has the layout of
    ``contract``'s grouped register: rows over ``targets``, columns over
    ``rest_labels``.
    """
    order = tuple(state.axis_of(q) for q in (*targets, *rest_labels))
    return StateVector(_ungrouped_outer(member.amplitudes, row, order), state.labels)


def measure_in_family(
    state: StateVector, family: BasisFamily, targets, seed
) -> MeasurementOutcome:
    """Sample one Born-rule outcome of measuring ``targets`` in ``family``.

    The four residuals come from one ``contract`` call (see :func:`_branches`)
    and the outcome from one ``rng.random()`` (see :func:`_born_draw`).
    """
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


def _entries(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """A ``DensityMatrix``'s entries, or an array (or a stack) of them as given."""
    return rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)


def support_projector(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support of a density matrix.

    The support is spanned by eigenvectors with eigenvalue above
    ``SUPPORT_EIGENVALUE_CUTOFF``.
    """
    vals, vecs = np.linalg.eigh(_entries(rho))
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
    m0, m1 = _entries(rho0), _entries(rho1)
    if m0.shape != m1.shape:
        raise ValueError(f"shape mismatch: {m0.shape} vs {m1.shape}")
    overlap = float(np.real(np.trace(m0 @ m1)))
    return SupportAnalysis(overlap <= ATOL, support_projector(m0), overlap)


def sample_projective(
    rho: DensityMatrix | np.ndarray, projector: np.ndarray, shots: int, seed
) -> np.ndarray:
    """``shots`` shots of the two-outcome measurement ``{P, I-P}`` on ``rho``.

    ``rho`` is a ``DensityMatrix``, a bare ``d x d`` array of its entries or
    a ``(..., d, d)`` stack of them.  Returns a boolean ``(..., shots)``
    array, True where the ``P`` outcome fires.  Every shot of a view fires
    with the same probability ``p = tr(P rho)``, so each ``p`` is taken once
    and all shots are drawn together as ``rng.random(p.shape + (shots,))``.
    A PCG64 generator gives ``rng.random(k)`` the values of ``k`` calls to
    ``rng.random()``, so the shots and the generator's end state are those
    of drawing them one by one, view after view in C order.

    ``shots`` is a count (:func:`~simulq.qlinalg._as_count`), at least 0.  A
    projector whose shape differs from a view's, and a ``p`` that is not
    finite or lies outside ``[-ATOL, 1 + ATOL]``, raise ``ValueError``; the
    message gives the first such ``p`` in C order.  Rounding inside that
    band is clamped to ``[0, 1]``.
    """
    if (shots := _as_count(shots, "shot count")) < 0:
        raise ValueError(f"the shot count must be >= 0, got {shots}")
    mat = _entries(rho)
    projector = np.asarray(projector)
    if projector.shape != mat.shape[-2:]:
        raise ValueError(f"projector has shape {projector.shape}, rho has shape {mat.shape}")
    p = (projector @ mat).trace(axis1=-2, axis2=-1).real
    bad = ~((p >= -ATOL) & (p <= 1.0 + ATOL))
    if bad.any():
        raise ValueError(
            f"tr(P rho) = {float(np.extract(bad, p)[0])!r} is not a probability:"
            f" bound [-{ATOL:g}, 1 + {ATOL:g}]"
        )
    return resolve_rng(seed).random(p.shape + (shots,)) < np.clip(p, 0.0, 1.0)[..., None]

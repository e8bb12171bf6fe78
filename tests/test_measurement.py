from __future__ import annotations

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simulq import measurement, qlinalg, states
from simulq.measurement import (
    ProtocolViolation,
    _born_draw,
    enumerate_branches,
    measure_in_family,
    sample_projective,
    support_distinguisher,
    support_projector,
)
from simulq.qlinalg import DensityMatrix, StateVector, _ungrouped, contract, partial_trace, tensor
from tests.classify_oracle import sample_one_shot
from tests.conftest import random_density, random_state, random_unitary


def test_measuring_a_family_member_is_deterministic():
    fam = states.family("bell")
    for bits, member in fam.members.items():
        out = measure_in_family(member, fam, member.labels, seed=0)
        assert out.label == bits
        assert out.probability == pytest.approx(1.0, abs=1e-12)
        assert_allclose(out.post_state.amplitudes, member.amplitudes, atol=1e-12)


def _draw_weights(kind: str, rng) -> np.ndarray:
    if kind == "one-hot":
        return np.eye(4)[rng.integers(4)]
    if kind == "split":
        w = rng.random(4) * (rng.random(4) < 0.7)
        w[rng.integers(4)] += 0.1
        return w / w.sum()
    w = rng.random(4)
    return w * (1.0 + rng.uniform(-1e-11, 1e-11)) / w.sum()


@pytest.mark.parametrize("kind", ["one-hot", "split", "sum within 1e-11 of 1"])
def test_born_draw_takes_what_generator_choice_takes(kind):
    # the direct draw must keep the random stream: same outcome, same
    # generator state afterwards, as ``rng.choice`` on the normalised weights
    fam = states.family("bell")
    for seed in range(400):
        setup = np.random.default_rng([seed, 7])
        w = _draw_weights(kind, setup)
        rows = np.sqrt(w[:, None] / 2) * np.exp(2j * np.pi * setup.random((4, 2)))
        probs = (np.abs(rows) ** 2).sum(axis=1)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            pick, p, row = _born_draw(rows, fam, ("q0", "q1"), got_rng)
            want = want_rng.choice(4, p=probs / probs.sum())
            assert pick == want
            assert p == probs[want]
            assert np.array_equal(row, rows[want] / np.linalg.norm(rows[want]))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_single_branch_enumeration():
    fam = states.family("bell")
    branches = enumerate_branches(fam.members[(1, 0)], fam, ("q0", "q1"))
    assert len(branches) == 1
    assert branches[0].label == (1, 0)
    assert branches[0].probability == pytest.approx(1.0, abs=1e-12)


def test_born_probabilities_against_direct_projection(rng):
    fam = states.family("bell")
    psi = random_state(rng, 3, ("a", "b", "c"))
    branches = {o.label: o for o in enumerate_branches(psi, fam, ("a", "c"))}
    # direct calculation: p = || <member|psi> ||^2 on the (a, c) slots
    amps = psi.amplitudes.reshape(2, 2, 2)
    for bits, member in fam.members.items():
        m = member.amplitudes.reshape(2, 2)
        resid = np.einsum("ac,abc->b", m.conj(), amps)
        p = float(np.sum(np.abs(resid) ** 2))
        if p > 1e-10:
            assert branches[bits].probability == pytest.approx(p, abs=1e-12)


def test_enumeration_probabilities_sum_to_one(rng):
    fam = states.family("ghz")
    # a random state in the GHZ family's span
    coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeff /= np.linalg.norm(coeff)
    vec = sum(
        c * m.amplitudes for c, m in zip(coeff, fam.members.values())
    )
    psi = StateVector(vec, ("a", "b", "c"))
    total = sum(o.probability for o in enumerate_branches(psi, fam, ("a", "b", "c")))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_out_of_span_weight_raises():
    fam = states.family("w")
    cases = (
        # |111> lies wholly outside the W family's span
        (np.eye(8)[7], "1.000e+00"),
        # (|000> + |111>)/sqrt(2): |000> is in the span, |111> is not
        ((np.eye(8)[0] + np.eye(8)[7]) / np.sqrt(2.0), "5.000e-01"),
    )
    for amps, weight in cases:
        psi = StateVector(amps, ("a", "b", "c"))
        message = re.escape(
            f"state has weight {weight} outside the span of the 'w' family on ('a', 'b', 'c')"
        )
        with pytest.raises(ProtocolViolation, match=message):
            enumerate_branches(psi, fam, ("a", "b", "c"))
        with pytest.raises(ProtocolViolation, match=message):
            measure_in_family(psi, fam, ("a", "b", "c"), seed=1)


@pytest.mark.parametrize("name, targets", [("bell", ("a",)), ("ghz", ("a", "b")), ("w", ("a",))])
def test_a_family_must_fit_its_targets(name, targets):
    fam = states.family(name)
    psi = StateVector(np.eye(8)[0], ("a", "b", "c"))
    message = re.escape(
        f"family {name!r} lives on {fam.ambient_dim} dimensions, got {len(targets)} target qubit(s)"
    )
    for measure in (enumerate_branches, lambda *a: measure_in_family(*a, seed=1)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure(psi, fam, targets)


def test_collapse_leaves_rest_register_consistent(rng):
    fam = states.family("bell")
    psi = tensor(random_state(rng, 1, ("x",)), states.phi(0, 1))
    out = measure_in_family(psi, fam, ("q0", "q1"), seed=3)
    assert out.label == (0, 1)
    assert out.post_state.labels == psi.labels
    # the untouched qubit keeps its reduced state
    assert_allclose(
        partial_trace(out.post_state, ("x",)).entries,
        partial_trace(psi, ("x",)).entries,
        atol=1e-12,
    )


def test_sampled_frequencies_follow_born_rule():
    # entanglement swapping: a joint measurement of (A1, A2) across the two
    # fresh pairs lands on each of the four family members with p = 1/4
    psi = states.initial_state("bell")
    rng = np.random.default_rng(99)
    fam = states.family("bell")
    counts = {bits: 0 for bits in fam.members}
    n = 20_000
    for _ in range(n):
        out = measure_in_family(psi, fam, ("A1", "A2"), seed=rng)
        counts[out.label] += 1
    sigma = np.sqrt(n * 0.25 * 0.75)
    for bits, c in counts.items():
        assert abs(c - n / 4) < 4 * sigma, counts


def test_same_seed_same_outcome():
    psi = states.initial_state("bell")
    fam = states.family("bell")
    a = measure_in_family(psi, fam, ("A1", "B"), seed=123)
    b = measure_in_family(psi, fam, ("A1", "B"), seed=123)
    assert a.label == b.label
    assert_allclose(a.post_state.amplitudes, b.post_state.amplitudes)


class TestSupportTools:
    def test_projector_of_rank_deficient_matrix(self):
        # rank-2 mixture on 2 qubits
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
        p = support_projector(rho)
        assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p) == pytest.approx(1.0)  # one-dimensional support
        assert_allclose(p @ rho, rho, atol=1e-12)

    def test_distinguisher_orthogonal(self):
        rho0 = np.diag([0.5, 0.5, 0.0, 0.0])
        rho1 = np.diag([0.0, 0.0, 0.5, 0.5])
        res = support_distinguisher(rho0, rho1)
        assert res.distinguishable
        assert res.overlap == pytest.approx(0.0, abs=1e-15)
        assert_allclose(res.projector, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_distinguisher_refuses_a_shape_mismatch(self):
        rho0 = DensityMatrix(np.eye(2) / 2, ("a",))
        with pytest.raises(ValueError, match=r"^shape mismatch: \(2, 2\) vs \(4, 4\)$"):
            support_distinguisher(rho0, np.eye(4) / 4)

    def test_distinguisher_overlapping(self):
        rho0 = np.diag([0.5, 0.5, 0.0, 0.0])
        rho1 = np.eye(4) / 4
        res = support_distinguisher(rho0, rho1)
        assert not res.distinguishable
        assert res.overlap > 0.1

    def test_sample_projective_certain_cases(self):
        rho_in = DensityMatrix(np.diag([1.0, 0.0]), ("a",))
        rho_out = DensityMatrix(np.diag([0.0, 1.0]), ("a",))
        proj = np.diag([1.0, 0.0])
        rng = np.random.default_rng(5)
        inside = sample_projective(rho_in, proj, 50, rng)
        assert inside.dtype == bool and inside.shape == (50,)
        assert inside.all()
        assert not sample_projective(rho_out, proj, 50, rng).any()

    def test_sample_projective_frequency(self):
        rho = DensityMatrix(np.eye(2) / 2, ("a",))
        proj = np.diag([1.0, 0.0])
        rng = np.random.default_rng(17)
        n = 10_000
        hits = int(sample_projective(rho, proj, n, rng).sum())
        assert abs(hits - n / 2) < 4 * np.sqrt(n * 0.25)


def _random_projector(rng, n_qubits: int) -> np.ndarray:
    """The projector onto a random subspace of 1 .. 2^n - 1 dimensions."""
    q = random_unitary(rng, n_qubits).entries[:, : rng.integers(1, 1 << n_qubits)]
    return q @ q.conj().T


@pytest.mark.parametrize("seed", [0, 5, 1789, 20240817, 2**31 - 1])
def test_sample_projective_draws_what_the_one_shot_loop_draws(seed):
    # a view's shots drawn at once are the one-shot draws, and leave the
    # generator where the one-shot loop leaves it; a bare entries array draws
    # what its DensityMatrix draws
    setup = np.random.default_rng([seed, 3])
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    array_rng = np.random.default_rng(seed)
    for n_qubits, shots in ((1, 25), (2, 1), (2, 40), (3, 0), (3, 25)):
        rho = random_density(setup, n_qubits)
        proj = _random_projector(setup, n_qubits)
        got = sample_projective(rho, proj, shots, got_rng)
        want = [sample_one_shot(rho, proj, want_rng) for _ in range(shots)]
        assert got.dtype == bool and got.tolist() == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        from_array = sample_projective(rho.entries, proj, shots, array_rng)
        assert from_array.dtype == bool and from_array.tolist() == want
        assert array_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 5, 1789, 2**31 - 1])
@pytest.mark.parametrize(
    "views, n_qubits", [((1,), 1), ((3,), 1), ((16,), 2), ((5,), 3), ((2, 4), 2)]
)
def test_a_stack_draws_what_its_views_draw_one_by_one(seed, views, n_qubits):
    # one call on a stack gives each view's shots, in C order, and leaves the
    # generator where one call per view leaves it
    setup = np.random.default_rng([seed, n_qubits, *views])
    rhos = [random_density(setup, n_qubits).entries for _ in range(int(np.prod(views)))]
    stack = np.array(rhos).reshape(*views, *rhos[0].shape)
    proj = _random_projector(setup, n_qubits)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_projective(stack, proj, 25, got_rng)
    want = [sample_projective(rho, proj, 25, want_rng) for rho in rhos]
    assert got.dtype == bool and got.shape == (*views, 25)
    assert np.array_equal(got.reshape(-1, 25), want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSampleProjectiveInputs:
    VIEW = DensityMatrix(np.eye(4) / 4, ("A1", "B"))

    def test_refuses_a_projector_of_another_shape(self):
        shapes = "projector has shape (2, 2), rho has shape (4, 4)"
        for rho in (self.VIEW, self.VIEW.entries):
            with pytest.raises(ValueError, match=re.escape(shapes)):
                sample_projective(rho, np.eye(2), 5, 0)

    @pytest.mark.parametrize(
        "projector, value",
        [(5 * np.eye(4), "5.0"), (np.full((4, 4), np.nan), "nan"), (-1e-9 * np.eye(4), "-1e-09")],
    )
    def test_refuses_a_probability_outside_the_band(self, projector, value):
        message = f"tr(P rho) = {value} is not a probability: bound [-1e-10, 1 + 1e-10]"
        for rho in (self.VIEW, self.VIEW.entries):
            with pytest.raises(ValueError, match=re.escape(message)):
                sample_projective(rho, projector, 5, 0)

    @pytest.mark.parametrize("first, later", [(5.0, -1.0), (-1.0, 5.0)])
    def test_a_stack_names_its_first_bad_view(self, first, later):
        # views [0, 2] and [1, 0] of a (2, 3) stack leave the band; the message
        # names [0, 2], the first in C order, and no shot is drawn
        stack = np.array([self.VIEW.entries] * 6).reshape(2, 3, 4, 4)
        stack[0, 2] *= first
        stack[1, 0] *= later
        message = f"tr(P rho) = {first} is not a probability: bound [-1e-10, 1 + 1e-10]"
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_projective(stack, np.eye(4), 5, rng)
        assert rng.bit_generator.state == state
        shapes = "projector has shape (2, 2), rho has shape (2, 3, 4, 4)"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            sample_projective(stack, np.eye(2), 5, rng)

    def test_clamps_rounding_inside_the_band(self):
        assert sample_projective(self.VIEW, (1 + 1e-11) * np.eye(4), 100, 1).all()
        assert not sample_projective(self.VIEW, -1e-11 * np.eye(4), 100, 1).any()


def _in_span_register(family, n_rest: int, rng) -> tuple[StateVector, tuple]:
    """A random register inside the family's span on its targets, which sit at random axes.

    Returns the state and the target labels in the family's qubit order.
    """
    k = family.ambient_dim.bit_length() - 1
    coeff = rng.normal(size=4) + 1j * rng.normal(size=4)
    rest = rng.normal(size=(4, 1 << n_rest)) + 1j * rng.normal(size=(4, 1 << n_rest))
    grouped = family.bras.T @ (coeff[:, None] * rest)
    order = tuple(rng.permutation(k + n_rest).tolist())
    amps = _ungrouped(grouped / np.linalg.norm(grouped), order)
    labels = tuple(f"q{i}" for i in range(k + n_rest))
    return StateVector(amps, labels), tuple(labels[i] for i in order[:k])


def _measure_per_member(state, family, targets, rng):
    """``measure_in_family`` with one ``contract`` call per member, as it measured before."""
    rows = []
    for member in family.members.values():
        residual, rest = contract(state, member.amplitudes, targets)
        rows.append(residual)
    pick, p, row = _born_draw(np.array(rows), family, targets, rng)
    label, member = list(family.members.items())[pick]
    order = tuple(state.axis_of(q) for q in (*targets, *rest))
    return label, p, _ungrouped(np.outer(member.amplitudes, row), order)


@pytest.mark.parametrize("name", ["bell", "ghz", "w"])
def test_measure_in_family_matches_the_per_member_contractions(name):
    fam = states.family(name)
    setup = np.random.default_rng([17, len(name)])
    for seed in range(60):
        state, targets = _in_span_register(fam, seed % 4, setup)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = measure_in_family(state, fam, targets, got_rng)
        label, p, amps = _measure_per_member(state, fam, targets, want_rng)
        assert (got.label, got.probability) == (label, p)
        assert got.post_state.amplitudes.tobytes() == amps.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_measurement_contracts_the_familys_stack_once_in_place(monkeypatch):
    # one contract call per measurement, on the family's read-only stack,
    # which contract checks as it is, without a copy
    calls, checked = [], []
    contract_fn, require_finite = measurement.contract, qlinalg._require_finite
    monkeypatch.setattr(measurement, "contract", lambda *a: calls.append(a) or contract_fn(*a))
    monkeypatch.setattr(
        qlinalg,
        "_require_finite",
        lambda arr, name: checked.append(arr) or require_finite(arr, name),
    )
    for name in ("bell", "ghz", "w"):
        fam = states.family(name)
        state, targets = _in_span_register(fam, 2, np.random.default_rng(4))
        before = len(calls)
        measure_in_family(state, fam, targets, seed=1)
        assert len(calls) == before + 1
        assert calls[-1][1] is fam.bras and checked[-1] is fam.bras
        assert not fam.bras.flags.writeable

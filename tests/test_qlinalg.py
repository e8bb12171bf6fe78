"""Engine-level tests: tensor structure, gate application, partial trace."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simulq import gates, states
from simulq.qlinalg import (
    ATOL,
    DensityMatrix,
    StateVector,
    Unitary,
    _checked_states,
    _grouped,
    _layout,
    _StateTable,
    _ungrouped,
    _ungrouped_outer,
    apply,
    contract,
    equal_up_to_global_phase,
    fidelity,
    inner,
    partial_trace,
    tensor,
    to_wire,
    unitary_from_wire,
)
from tests import validation_oracle as oracle
from tests.conftest import random_density, random_state

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def pure_density(state: StateVector) -> DensityMatrix:
    """The rank-one density matrix ``|state><state|``."""
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.labels)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]), ("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0, 0.0]), ("a", "a"))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]), ("a", "b"))

    def test_amplitudes_read_only(self):
        psi = StateVector(KET0, ("a",))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 5.0

    def test_axis_lookup(self):
        psi = random_state(np.random.default_rng(0), 3, ("x", "y", "z"))
        assert psi.axis_of("y") == 1
        with pytest.raises(ValueError):
            psi.axis_of("nope")


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m, ("a",))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), ("a",))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityMatrix(m, ("a",))

    def test_qubit_count(self):
        assert DensityMatrix(np.eye(8) / 8, ("a", "b", "c")).n_qubits == 3


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Unitary(np.eye(3))

    def test_qubit_count(self):
        assert Unitary(np.eye(8)).n_qubits == 3


class TestTensor:
    def test_state_order_and_labels(self):
        left = StateVector(KET1, ("a",))
        right = StateVector(KET0, ("b",))
        joint = tensor(left, right)
        assert joint.labels == ("a", "b")
        assert_allclose(joint.amplitudes, [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("n_left", range(1, 7))
    @pytest.mark.parametrize("n_right", range(1, 7))
    def test_amplitudes_are_np_kron_bytewise(self, rng, n_left, n_right):
        left = random_state(rng, n_left, tuple(f"a{i}" for i in range(n_left)))
        right = random_state(rng, n_right, tuple(f"b{i}" for i in range(n_right)))
        joint = tensor(left, right)
        assert joint.labels == left.labels + right.labels
        assert joint.amplitudes.shape == (1 << (n_left + n_right),)
        assert joint.amplitudes.tobytes() == np.kron(left.amplitudes, right.amplitudes).tobytes()
        assert not joint.amplitudes.flags.writeable

    def test_label_collision(self):
        with pytest.raises(ValueError):
            tensor(StateVector(KET0, ("a",)), StateVector(KET0, ("a",)))

    def test_only_states(self, rng):
        with pytest.raises(TypeError, match="cannot tensor DensityMatrix with DensityMatrix"):
            tensor(random_density(rng, 1, ("a",)), random_density(rng, 1, ("b",)))


class TestApply:
    def test_single_qubit_on_chosen_wire(self):
        # sigma_x on the second of three qubits: |000> -> |010>
        psi = StateVector(np.eye(8)[0], ("a", "b", "c"))
        out = apply(psi, gates.pauli_encoder((1, 0)), ("b",))
        assert_allclose(out.amplitudes, np.eye(8)[2], atol=1e-15)

    def test_two_qubit_on_swapped_targets(self):
        # CNOT with control c, target a on |a b c> = |001>: flips a -> |101>
        psi = StateVector(np.eye(8)[1], ("a", "b", "c"))
        out = apply(psi, gates.cnot(), ("c", "a"))
        assert_allclose(out.amplitudes, np.eye(8)[5], atol=1e-15)

    def test_matches_full_kron(self, rng):
        psi = random_state(rng, 3, ("a", "b", "c"))
        u = gates.qft(2)
        big = np.kron(u.entries, np.eye(2))  # acts on (a, b)
        out = apply(psi, u, ("a", "b"))
        assert_allclose(out.amplitudes, big @ psi.amplitudes, atol=1e-12)

    def test_unknown_target(self):
        psi = StateVector(KET0, ("a",))
        with pytest.raises(ValueError):
            apply(psi, gates.hadamard(), ("b",))

    def test_gate_size_mismatch(self):
        psi = StateVector(np.eye(4)[0], ("a", "b"))
        with pytest.raises(ValueError):
            apply(psi, gates.hadamard(), ("a", "b"))

    @pytest.mark.parametrize(
        "targets, message",
        [((), "no target qubits given"), (("a", "a"), "duplicate target labels: ('a', 'a')")],
    )
    def test_refuses_empty_or_duplicate_targets(self, targets, message):
        psi = StateVector(np.eye(4)[0], ("a", "b"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply(psi, gates.cnot(), targets)


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        a = random_state(rng, 1, ("a",))
        b = random_state(rng, 1, ("b",))
        joint = tensor(a, b)
        assert_allclose(
            partial_trace(joint, ("a",)).entries,
            np.outer(a.amplitudes, a.amplitudes.conj()),
            atol=1e-12,
        )

    def test_bell_pair_is_maximally_mixed(self):
        rho = partial_trace(states.phi(0, 0), ("q0",))
        assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_keeps_register_order_not_request_order(self, rng):
        psi = random_state(rng, 3, ("a", "b", "c"))
        rho = partial_trace(psi, ("c", "a"))
        assert rho.labels == ("a", "c")

    def test_only_states(self, rng):
        with pytest.raises(TypeError, match="cannot take a partial trace of DensityMatrix"):
            partial_trace(random_density(rng, 2, ("a", "b")), ("b",))

    @pytest.mark.parametrize(
        "keep, message",
        [
            ((), "keep must name at least one qubit"),
            (("a", "z"), "unknown qubit label(s) ['z']; register is ('a', 'b')"),
        ],
    )
    def test_refuses_an_empty_or_unknown_keep(self, rng, keep, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            partial_trace(random_state(rng, 2, ("a", "b")), keep)

    def test_trace_preserved(self, rng):
        rho = partial_trace(random_state(rng, 4), ("q1", "q3"))
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12

    def test_refusal_names_the_kept_qubits_and_the_bound(self):
        labels = tuple(f"q{i}" for i in range(11))
        psi = StateVector(np.eye(1, 2**11).ravel(), labels)
        message = "refusing to build a reduced matrix on 11 qubits; at most 10 qubits can be kept"
        with pytest.raises(ValueError, match=f"^{message}$"):
            partial_trace(psi, labels)


class TestComparisons:
    def test_inner_requires_same_labels(self):
        with pytest.raises(ValueError):
            inner(StateVector(KET0, ("a",)), StateVector(KET0, ("b",)))

    def test_global_phase_equality(self, rng):
        psi = random_state(rng, 2)
        shifted = StateVector(np.exp(0.3j) * psi.amplitudes, psi.labels)
        assert equal_up_to_global_phase(psi, shifted)
        other = random_state(rng, 2)
        assert not equal_up_to_global_phase(psi, other)

    def test_global_phase_equality_refuses_a_label_mismatch(self):
        message = "^" + re.escape("label mismatch: ('a',) vs ('b',)") + "$"
        with pytest.raises(ValueError, match=message):
            equal_up_to_global_phase(StateVector(KET0, ("a",)), StateVector(KET0, ("b",)))

    def test_fidelity_refuses_a_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 4$"):
            fidelity(StateVector(KET0, ("a",)), random_density(rng, 2, ("a", "b")))

    def test_fidelity_pure_against_mixture(self, rng):
        psi = random_state(rng, 1, ("a",))
        assert fidelity(psi, pure_density(psi)) == pytest.approx(1.0, abs=1e-12)
        orth = StateVector(
            np.array([-psi.amplitudes[1].conjugate(), psi.amplitudes[0].conjugate()]),
            ("a",),
        )
        assert fidelity(psi, pure_density(orth)) == pytest.approx(0.0, abs=1e-12)


class TestWireFormat:
    def test_unitary_roundtrip(self):
        u = gates.qft(2)
        assert_allclose(unitary_from_wire(to_wire(u)).entries, u.entries)

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            unitary_from_wire({"re": [1.0]})

    def test_refuses_a_shape_other_than_the_declared_one(self):
        message = "^" + re.escape("payload shape (2, 2) does not match declared (4, 1)") + "$"
        with pytest.raises(ValueError, match=message):
            unitary_from_wire({"re": [[1, 0], [0, 1]], "shape": [4, 1]})

    @pytest.mark.parametrize(
        "im, shapes",
        [([[1, 0], [0, 1]], "(4, 4) but im has shape (2, 2)"), (0, "(4, 4) but im has shape ()")],
    )
    def test_names_both_shapes_when_re_and_im_differ(self, im, shapes):
        message = "^" + re.escape(f"re has shape {shapes}") + "$"
        with pytest.raises(ValueError, match=message):
            unitary_from_wire({"re": np.eye(4).tolist(), "im": im})

    def test_serializes_only_states_densities_and_unitaries(self):
        with pytest.raises(TypeError, match="^cannot serialize ndarray$"):
            to_wire(np.eye(2))


# A locked Bell-channel register, written out entry by entry: encoding the
# all-zero message and applying the two-sender Fourier lock must give
# (1/4) * [1,1,1,1, 1,i,-1,-i, 1,-1,1,-1, 1,-i,-1,i] on (A1,A2,B,C).
def test_locked_bell_register_literal():
    from simulq.protocols import run_dense_coding_with_lock

    t = run_dense_coding_with_lock("bell", (0, 0), (0, 0), gates.qft(2), seed=0)
    locked = t.step_state("step2_lock_send")
    axes = [locked.axis_of(q) for q in ("A1", "A2", "B", "C")]
    amplitudes = locked.amplitudes.reshape(2, 2, 2, 2).transpose(axes).reshape(-1)
    expected = 0.25 * np.array(
        [1, 1, 1, 1, 1, 1j, -1, -1j, 1, -1, 1, -1, 1, -1j, -1, 1j]
    )
    assert_allclose(amplitudes, expected, atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_apply_preserves_norm(n, seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, n)
    out = apply(psi, gates.qft(n), psi.labels)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_of_pure_state_is_valid_density(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, 3)
    rho = partial_trace(psi, ("q0", "q2"))  # constructor revalidates
    assert rho.labels == ("q0", "q2")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tensor_then_trace_recovers_factor(seed):
    rng = np.random.default_rng(seed)
    a = random_state(rng, 1, ("a",))
    b = random_state(rng, 2, ("b", "c"))
    rho = partial_trace(tensor(a, b), ("b", "c"))
    assert_allclose(rho.entries, np.outer(b.amplitudes, b.amplitudes.conj()), atol=1e-12)


def _message(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestStateRows:
    """The state table validates a whole table as the constructor validates one row."""

    LABELS = ("a", "b")

    def _table(self, k=5):
        rng = np.random.default_rng(11)
        table = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
        return table / np.linalg.norm(table, axis=1)[:, None]

    def test_rows_become_read_only_states(self):
        table = self._table()
        owned = table.copy()
        rows = _StateTable(owned, self.LABELS)
        assert rows.labels == self.LABELS
        assert not owned.flags.writeable
        for i, want in enumerate(table):
            row = rows[i]
            assert isinstance(row, StateVector)
            assert row.labels == self.LABELS
            assert np.array_equal(row.amplitudes, want)
            assert np.shares_memory(row.amplitudes, owned)
            with pytest.raises(ValueError):
                row.amplitudes[0] = 0.0

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_unnormalized_row_has_the_constructor_message(self, bad):
        table = self._table()
        table[bad] *= 1.1
        want = _message(lambda: StateVector(table[bad], self.LABELS))
        assert want.startswith("state is not normalized")
        assert _message(lambda: _StateTable(table, self.LABELS)) == want

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_has_the_constructor_message(self, value):
        table = self._table()
        table[3, 1] = value
        want = _message(lambda: StateVector(table[3], self.LABELS))
        assert _message(lambda: _StateTable(table, self.LABELS)) == want

    def test_duplicate_labels_have_the_constructor_message(self):
        table = self._table()
        want = _message(lambda: StateVector(table[0], ("a", "a")))
        assert _message(lambda: _StateTable(table, ("a", "a"))) == want

    def test_wrong_width_has_the_constructor_message(self):
        table = self._table()[:, :3]
        want = _message(lambda: StateVector(table[0], self.LABELS))
        assert _message(lambda: _StateTable(table, self.LABELS)) == want


class TestCheckedDensities:
    """The constructor checks each one-qubit matrix of a stack as the reference checks
    that matrix alone: a spoiled one is refused with the same message, the rest accepted."""

    def _stack(self, rng, k=5):
        return np.array([random_density(rng, 1).entries for _ in range(k)])

    @staticmethod
    def _outcomes(stack, labels):
        """Each matrix's outcome in the constructor and in the reference, side by side."""
        return [
            (
                _outcome(lambda: DensityMatrix(mat, labels).labels),
                _outcome(oracle.checked_densities, mat[None], labels),
            )
            for mat in stack
        ]

    @pytest.mark.parametrize("bad", [0, 2, 4])
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda m: m + np.array([[0, 1e-6], [0, 0]]),  # not Hermitian
            lambda m: 1.5 * m,  # trace 1.5
            lambda m: np.diag([1.5, -0.5]) + 0j,  # negative eigenvalue
            lambda m: np.where(np.eye(2) > 0, np.nan, m),  # non-finite
        ],
    )
    def test_bad_matrix_has_the_constructor_message(self, rng, bad, spoil):
        stack = self._stack(rng)
        stack[bad] = spoil(stack[bad])
        outcomes = self._outcomes(stack, ("q",))
        assert all(got == want for got, want in outcomes)
        refused = [j for j, (got, _) in enumerate(outcomes) if got[0] is ValueError]
        assert refused == [bad]

    def test_valid_stack_passes(self, rng):
        stack = self._stack(rng)
        assert self._outcomes(stack, ["q"]) == [(("accepted", ("q",)),) * 2] * len(stack)

    def test_wrong_shape_has_the_constructor_message(self, rng):
        stack = self._stack(rng)
        for got, want in self._outcomes(stack, ("q", "r")):
            assert got == want == (ValueError, "2 labels require a 4x4 matrix, got (2, 2)")


def _outcome(check, *args):
    """What a validator makes of an input: its result, or its exception's type and message."""
    try:
        return "accepted", check(*args)
    except Exception as exc:  # any type, so a different one fails the comparison
        return type(exc), str(exc)


INF, NAN = np.inf, np.nan


def _with(array, index, value):
    array[index] = value
    return array


# Each spoiler edits row or matrix ``bad`` of a valid stack (or returns a new
# array); several combine two faults, so the order of the checks is pinned too.
STATE_SPOILERS = {
    "valid": lambda t, bad: t,
    "nan": lambda t, bad: _with(t, (bad, 1), NAN),
    "+inf": lambda t, bad: _with(t, (bad, 0), INF),
    "-inf": lambda t, bad: _with(t, (bad, 3), -INF),
    "imaginary inf": lambda t, bad: _with(t, (bad, 2), complex(0.0, INF)),
    "nan and inf": lambda t, bad: _with(_with(t, (bad, 1), INF), (bad, 0), NAN),
    "squares overflow": lambda t, bad: _with(t, (bad, 2), 1e200),
    "every square overflows": lambda t, bad: _with(t, bad, 1e160 * t[bad]),
    "largest finite": lambda t, bad: _with(t, (bad, 0), complex(1.7e308, -1.7e308)),
    "not normalized": lambda t, bad: _with(t, bad, 1.1 * t[bad]),
    "just inside the tolerance": lambda t, bad: _with(t, bad, (1.0 + 4e-11) * t[bad]),
    "zero row": lambda t, bad: _with(t, bad, 0.0),
    "wrong width": lambda t, bad: t[:, :3],
    "wrong width and nan": lambda t, bad: _with(t[:, :2].copy(), (bad, 0), NAN),
    "wrong width and overflow": lambda t, bad: _with(t[:, :2].copy(), (bad, 0), 1e200),
    "wider and not normalized": lambda t, bad: np.hstack([t, t]),
}

DENSITY_SPOILERS = {
    "valid": lambda s, bad: s,
    "nan on the diagonal": lambda s, bad: _with(s, (bad, 1, 1), NAN),
    "nan off the diagonal": lambda s, bad: _with(s, (bad, 0, 3), NAN),
    "+inf off the diagonal": lambda s, bad: _with(s, (bad, 2, 1), INF),
    "-inf on the diagonal": lambda s, bad: _with(s, (bad, 3, 3), -INF),
    "imaginary inf on the diagonal": lambda s, bad: _with(s, (bad, 0, 0), complex(0.0, INF)),
    "inf at both mirrored entries": lambda s, bad: _with(_with(s, (bad, 0, 1), INF), (bad, 1, 0), INF),
    "deviation overflows": lambda s, bad: _with(_with(s, (bad, 0, 1), 1e308), (bad, 1, 0), -1e308),
    "trace sum overflows": lambda s, bad: _with(s, bad, np.diag([1e308, 1e308, -1e308, -1e308])),
    "not Hermitian": lambda s, bad: _with(s, (bad, 0, 2), s[bad, 0, 2] + 1e-6),
    "trace 1.5": lambda s, bad: _with(s, bad, 1.5 * s[bad]),
    "trace just inside the tolerance": lambda s, bad: _with(s, (bad, 0, 0), s[bad, 0, 0] + 5e-11),
    "negative eigenvalue": lambda s, bad: _with(s, bad, np.diag([1.5, -0.5, 0.0, 0.0])),
    "wrong shape": lambda s, bad: s[:, :2, :2],
    "not square": lambda s, bad: s[:, :, :2],
    "wrong shape and nan": lambda s, bad: _with(s[:, :2, :2].copy(), (bad, 1, 0), NAN),
}


def _state_table(k: int) -> np.ndarray:
    rng = np.random.default_rng(31 + k)
    table = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
    return table / np.linalg.norm(table, axis=1)[:, None]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestValidatorsMatchTheOracle:
    """The fast validators raise exactly what the step-by-step reference raises.

    Some inputs overflow on purpose; the warnings they raise are the same
    for the validator and for the reference.
    """

    @pytest.mark.parametrize("labels", [("a", "b"), ["a", "b"], ("a", "a"), (0, "0")])
    @pytest.mark.parametrize("k, bad", [(1, 0), (5, 0), (5, 3), (5, 4)])
    @pytest.mark.parametrize("spoil", list(STATE_SPOILERS), ids=str)
    def test_states(self, spoil, k, bad, labels):
        table = STATE_SPOILERS[spoil](_state_table(k), bad)
        want = _outcome(oracle.checked_states, table, labels)
        assert _outcome(_checked_states, table, labels) == want
        if k == 1 and labels == ("a", "b"):
            assert _outcome(lambda: StateVector(table[0], labels).labels) == want

    @pytest.mark.parametrize("k", [1, 4])
    def test_states_on_random_tables(self, k):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            table = rng.normal(size=(k, 1 << n)) + 1j * rng.normal(size=(k, 1 << n))
            table /= np.linalg.norm(table, axis=1)[:, None]
            table *= 1.0 + rng.choice([0.0, 1e-12, 5e-11, 2e-10, -3e-10], size=(k, 1))
            labels = tuple(f"q{i}" for i in range(n))
            assert _outcome(_checked_states, table, labels) == _outcome(
                oracle.checked_states, table, labels
            )

    @pytest.mark.parametrize("labels", [("q", "r"), ("q", "q")])
    @pytest.mark.parametrize("k, bad", [(1, 0), (5, 0), (5, 2), (5, 4)])
    @pytest.mark.parametrize("spoil", list(DENSITY_SPOILERS), ids=str)
    def test_densities(self, rng, spoil, k, bad, labels):
        # the constructor judges each matrix of the stack as the reference judges it alone
        stack = np.array([random_density(rng, 2).entries for _ in range(k)])
        stack = DENSITY_SPOILERS[spoil](stack, bad)
        for mat in stack:
            want = _outcome(oracle.checked_densities, mat[None], labels)
            assert _outcome(lambda: DensityMatrix(mat, labels).labels) == want

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_densities_with_the_trace_off_by_a_little(self, rng, k, n):
        # the reported trace keeps every digit of the reference's computation
        labels = tuple(f"q{i}" for i in range(n))
        for scale in (1.0 + 2e-10, 1.0 - 3e-7, 1.0 + 1e-3, 3.0):
            stack = np.array([random_density(rng, n).entries for _ in range(k)])
            stack[-1] *= scale
            want = _outcome(oracle.checked_densities, stack[-1:], labels)
            assert want[0] is ValueError and "trace" in want[1]
            assert _outcome(lambda: DensityMatrix(stack[-1], labels)) == want
            for mat in stack[:-1]:
                assert _outcome(lambda: DensityMatrix(mat, labels).labels) == ("accepted", labels)


@pytest.mark.parametrize("n", range(1, 19))
def test_layout_memo_matches_the_argsort_rule(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(12):
        k = int(rng.integers(1, n + 1))
        axes = tuple(int(a) for a in rng.permutation(n)[:k])
        order, inverse, shape = _layout(n, axes)
        want = oracle.grouped_order(n, axes)
        assert list(order) == want
        assert list(inverse) == oracle.ungrouping_permutation(want).tolist()
        assert shape == (1 << k, 1 << (n - k))
        # an ungrouping layout is a full order, and its memo entry is that order's own
        assert _layout(n, order) == (order, inverse, (1 << n, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_grouped_and_ungrouped_match_the_uncached_layout(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for _ in range(6):
        axes = [int(a) for a in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        want_order = oracle.grouped_order(n, axes)
        want = amps.reshape([2] * n).transpose(want_order).reshape(1 << len(axes), -1)
        matrix, order = _grouped(amps, axes)
        assert list(order) == want_order
        assert np.array_equal(matrix, want)
        back = want.reshape([2] * n).transpose(oracle.ungrouping_permutation(want_order))
        assert np.array_equal(_ungrouped(matrix, order), back.reshape(-1))
        assert np.array_equal(_ungrouped(matrix, want_order), amps)


@pytest.mark.parametrize("n", range(2, 11))
def test_ungrouped_outer_is_the_outer_product_ungrouped_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    for k in range(1, n):
        order = [int(a) for a in rng.permutation(n)]
        rows = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        cols = rng.normal(size=1 << (n - k)) + 1j * rng.normal(size=1 << (n - k))
        for left in (rows, rows.real):
            got = _ungrouped_outer(left, cols, order)
            assert got.dtype == np.complex128 and got.flags.c_contiguous
            assert got.tobytes() == _ungrouped(np.outer(left, cols), order).tobytes()


def _assert_stack_is_the_rows(state: StateVector, bras: np.ndarray, targets) -> None:
    # each row must be what one call per bra gives, and what the product of
    # the conjugated bra with the grouped register gives
    got, rest = contract(state, bras, targets)
    assert got.shape == (len(bras), state.dim >> len(targets))
    psi, _ = _grouped(state.amplitudes, [state.axis_of(t) for t in targets])
    for bra, row in zip(bras, got):
        want, want_rest = contract(state, bra, targets)
        assert row.tobytes() == want.tobytes() and rest == want_rest
        assert row.tobytes() == (np.asarray(bra, dtype=complex).conj() @ psi).tobytes()


class TestContractStack:
    """A stack of bras contracts to the rows that one call per bra gives, bit for bit."""

    @pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
    def test_channel_registers_with_their_family(self, channel):
        start = states.initial_state(channel)
        bras = states.family(channel).bras
        for state in (start, apply(start, gates.qft(2), ("A1", "A2"))):
            for targets in states.DENSE_CHANNELS[channel].values():
                _assert_stack_is_the_rows(state, bras, targets)
                _assert_stack_is_the_rows(state, bras, targets[::-1])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_registers(self, n):
        rng = np.random.default_rng(300 + n)
        state = random_state(rng, n)
        for _ in range(6):
            k = int(rng.integers(1, min(n, 4)))
            targets = tuple(state.labels[i] for i in rng.permutation(n)[:k])
            m = int(rng.integers(1, 6))
            bras = rng.normal(size=(m, 1 << k)) + 1j * rng.normal(size=(m, 1 << k))
            _assert_stack_is_the_rows(state, bras, targets)
            _assert_stack_is_the_rows(state, bras.real, targets)

    def test_refuses_bad_stacks(self):
        state = random_state(np.random.default_rng(2), 3)
        with pytest.raises(ValueError, match=re.escape("bra has shape (4, 2) for 2 qubit(s)")):
            contract(state, np.ones((4, 2)), ("q0", "q1"))
        with pytest.raises(ValueError, match=re.escape("bra has shape (1, 1, 2) for 1 qubit(s)")):
            contract(state, np.ones((1, 1, 2)), ("q0",))
        bras = np.ones((3, 2), dtype=complex)
        bras[2, 1] = np.nan
        with pytest.raises(ValueError, match="bra contains non-finite entries"):
            contract(state, bras, ("q2",))

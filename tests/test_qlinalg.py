"""Engine-level tests: tensor structure, gate application, partial trace."""

from __future__ import annotations

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
    _checked_densities,
    _state_rows,
    apply,
    equal_up_to_global_phase,
    fidelity,
    inner,
    partial_trace,
    tensor,
    to_wire,
    unitary_from_wire,
)
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

    def test_trace_preserved(self, rng):
        rho = partial_trace(random_state(rng, 4), ("q1", "q3"))
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12


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
    """The batch builder validates a whole table as the constructor validates one row."""

    LABELS = ("a", "b")

    def _table(self, k=5):
        rng = np.random.default_rng(11)
        table = rng.normal(size=(k, 4)) + 1j * rng.normal(size=(k, 4))
        return table / np.linalg.norm(table, axis=1)[:, None]

    def test_rows_become_read_only_states(self):
        table = self._table()
        rows = _state_rows(table.copy(), self.LABELS)
        assert len(rows) == len(table)
        for row, want in zip(rows, table):
            assert isinstance(row, StateVector)
            assert row.labels == self.LABELS
            assert np.array_equal(row.amplitudes, want)
            with pytest.raises(ValueError):
                row.amplitudes[0] = 0.0

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_unnormalized_row_has_the_constructor_message(self, bad):
        table = self._table()
        table[bad] *= 1.1
        want = _message(lambda: StateVector(table[bad], self.LABELS))
        assert want.startswith("state is not normalized")
        assert _message(lambda: _state_rows(table, self.LABELS)) == want

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_has_the_constructor_message(self, value):
        table = self._table()
        table[3, 1] = value
        want = _message(lambda: StateVector(table[3], self.LABELS))
        assert _message(lambda: _state_rows(table, self.LABELS)) == want

    def test_duplicate_labels_have_the_constructor_message(self):
        table = self._table()
        want = _message(lambda: StateVector(table[0], ("a", "a")))
        assert _message(lambda: _state_rows(table, ("a", "a"))) == want

    def test_wrong_width_has_the_constructor_message(self):
        table = self._table()[:, :3]
        want = _message(lambda: StateVector(table[0], self.LABELS))
        assert _message(lambda: _state_rows(table, self.LABELS)) == want


class TestCheckedDensities:
    """The stacked density checks raise what the constructor raises for one matrix."""

    def _stack(self, rng, k=5):
        return np.array([random_density(rng, 1).entries for _ in range(k)])

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
        want = _message(lambda: DensityMatrix(stack[bad], ("q",)))
        assert _message(lambda: _checked_densities(stack, ("q",))) == want

    def test_valid_stack_passes(self, rng):
        stack = self._stack(rng)
        assert _checked_densities(stack, ["q"]) == ("q",)

    def test_wrong_shape_has_the_constructor_message(self, rng):
        stack = self._stack(rng)
        want = _message(lambda: DensityMatrix(stack[0], ("q", "r")))
        assert _message(lambda: _checked_densities(stack, ("q", "r"))) == want

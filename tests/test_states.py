"""Resource states and their encoding families."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simulq import gates, states
from simulq.qlinalg import StateVector, apply, equal_up_to_global_phase, inner

SQ2 = np.sqrt(2.0)

ALL_BITS = list(itertools.product((0, 1), repeat=2))


def test_phi_literals():
    assert_allclose(states.phi(0, 0).amplitudes, [1, 0, 0, 1] / (SQ2 * np.ones(4)))
    assert_allclose(states.phi(0, 1).amplitudes, np.array([1, 0, 0, -1]) / SQ2)
    assert_allclose(states.phi(1, 0).amplitudes, np.array([0, 1, 1, 0]) / SQ2)
    assert_allclose(states.phi(1, 1).amplitudes, np.array([0, 1, -1, 0]) / SQ2)


def test_ghz_literals():
    assert_allclose(states.ghz(0, 0).amplitudes, np.eye(8)[0] / SQ2 + np.eye(8)[7] / SQ2)
    assert_allclose(states.ghz(1, 1).amplitudes, np.eye(8)[3] / SQ2 - np.eye(8)[4] / SQ2)


def test_w_literals():
    # |W(00)> = (|010> + |001> + sqrt2 |100>)/2
    expected = np.zeros(8)
    expected[2] = expected[1] = 0.5
    expected[4] = SQ2 / 2
    assert_allclose(states.w(0, 0).amplitudes, expected)
    # |W(11)> = (|110> + |101> - sqrt2 |000>)/2
    expected = np.zeros(8)
    expected[6] = expected[5] = 0.5
    expected[0] = -SQ2 / 2
    assert_allclose(states.w(1, 1).amplitudes, expected)


@pytest.mark.parametrize("name", ["bell", "ghz", "w"])
def test_family_is_orthonormal(name):
    fam = states.family(name)
    members = list(fam.members.values())
    gram = np.array([[inner(a, b) for b in members] for a in members])
    assert_allclose(gram, np.eye(4), atol=1e-12)


def test_family_member_order_is_fixed():
    fam = states.family("bell")
    assert list(fam.members) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_ghz_w_families_span_half_the_space():
    for fam in (states.family("ghz"), states.family("w")):
        assert fam.ambient_dim == 8
        vecs = np.array([m.amplitudes for m in fam.members.values()])
        assert np.linalg.matrix_rank(vecs) == 4


@pytest.mark.parametrize("bits", ALL_BITS)
def test_bell_encoding_covariance(bits):
    # U(xy) on the first qubit of phi(0,0) gives phi(x,y) exactly
    encoded = apply(states.phi(0, 0), gates.pauli_encoder(bits), ("q0",))
    assert_allclose(encoded.amplitudes, states.phi(*bits).amplitudes, atol=1e-15)


@pytest.mark.parametrize("bits", ALL_BITS)
def test_ghz_encoding_covariance(bits):
    encoded = apply(states.ghz(0, 0), gates.pauli_encoder(bits), ("q0",))
    assert_allclose(encoded.amplitudes, states.ghz(*bits).amplitudes, atol=1e-15)


@pytest.mark.parametrize("bits", ALL_BITS)
def test_w_encoding_covariance_up_to_phase(bits):
    # For the W family the (1,1) encoder lands on -|W(11)>; the family is
    # still recovered exactly up to a global phase.
    encoded = apply(states.w(0, 0), gates.pauli_encoder(bits), ("q0",))
    assert equal_up_to_global_phase(encoded, states.w(*bits))
    if bits == (1, 1):
        assert_allclose(encoded.amplitudes, -states.w(1, 1).amplitudes, atol=1e-15)


def test_initial_state_labels_and_values():
    bell = states.initial_state("bell")
    assert bell.labels == ("A1", "B", "A2", "C")
    expected = np.zeros(16)
    expected[[0, 3, 12, 15]] = 0.5
    assert_allclose(bell.amplitudes, expected)

    ghz = states.initial_state("ghz")
    assert ghz.labels == ("A1", "B1", "B2", "A2", "C1", "C2")
    expected = np.zeros(64)
    expected[[0, 7, 56, 63]] = 0.5
    assert_allclose(ghz.amplitudes, expected)

    w = states.initial_state("w")
    assert w.labels == ("A1", "B1", "B2", "A2", "C1", "C2")

    # the channel table is the source of every layout
    for channel, layout in states.DENSE_CHANNELS.items():
        assert states.initial_state(channel).labels == layout["bob"] + layout["charlie"]


def test_initial_state_rejects_unknown_channel():
    with pytest.raises(ValueError):
        states.initial_state("bogus")


def test_named_state():
    assert_allclose(states.named_state("phi10").amplitudes, states.phi(1, 0).amplitudes)
    assert_allclose(states.named_state("w01").amplitudes, states.w(0, 1).amplitudes)
    with pytest.raises(ValueError):
        states.named_state("phi2")
    with pytest.raises(ValueError):
        states.named_state("xyz00")


@pytest.mark.parametrize("name", ["bell", "ghz", "w"])
def test_family_is_built_once_and_read_only(name):
    fam = states.family(name)
    assert states.family(name) is fam
    with pytest.raises(TypeError):
        fam.members[(0, 0)] = states.phi(1, 1)
    with pytest.raises(ValueError):
        fam.members[(0, 0)].amplitudes[0] = 0.0


@pytest.mark.parametrize("name", ["bell", "ghz", "w"])
def test_family_bra_stack_is_its_members_built_once_read_only(name):
    fam = states.family(name)
    want = np.array([m.amplitudes for m in fam.members.values()])
    assert fam.bras.dtype == np.complex128 and fam.bras.tobytes() == want.tobytes()
    assert fam.bras.shape == (4, fam.ambient_dim)
    with pytest.raises(ValueError):
        fam.bras[0, 0] = 0.0
    assert states.family(name).bras is fam.bras


def test_family_keeps_a_read_only_copy_of_its_members():
    given = {xy: states.phi(*xy) for xy in ALL_BITS}
    fam = states.BasisFamily("bell", given)
    given[(0, 0)] = states.phi(1, 1)
    assert fam.members[(0, 0)] is not given[(0, 0)]
    with pytest.raises(TypeError):
        del fam.members[(0, 0)]


@pytest.mark.parametrize("channel", ["bell", "ghz", "w"])
def test_initial_state_is_built_once_and_read_only(channel):
    state = states.initial_state(channel)
    assert states.initial_state(channel) is state
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


_KETS = [StateVector(np.eye(4)[i], ("a", "b")) for i in range(4)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: states.phi(2, 0), "bits must be 0 or 1, got (2, 0)"),
        (lambda: states.ghz(0, -1), "bits must be 0 or 1, got (0, -1)"),
        (
            lambda: states.BasisFamily("kets", dict(zip(ALL_BITS[::-1], _KETS))),
            f"family members must be keyed by {tuple(ALL_BITS)}",
        ),
        (
            lambda: states.BasisFamily("kets", dict(zip(ALL_BITS, _KETS[:3] + _KETS[:1]))),
            "family 'kets' is not orthonormal",
        ),
        (lambda: states.family("qutrit"), "unknown family 'qutrit'; known families: ['bell', 'ghz', 'w']"),
    ],
)
def test_refusals_name_the_bad_value(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()

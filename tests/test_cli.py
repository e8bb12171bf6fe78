from __future__ import annotations

import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from simulq import analysis, cli, gates, protocols, qlinalg, states
from simulq.cli import main
from simulq.qlinalg import ATOL, StateVector, to_wire
from tests.conftest import random_unitary


GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_bell_decodes_bits(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "bell", "--bits", "1001", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcomes"]["bob"] == [1, 0]
    assert data["outcomes"]["charlie"] == [0, 1]
    assert data["protocol"] == "dense_coding:bell:qft"


def test_run_is_deterministic_bytewise(capsys):
    args = ("run", "--protocol", "w", "--bits", "0110", "--seed", "3", "--snapshots")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_run_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "ghz", "--bits", "1111", "--format", "table"
    )
    assert code == 0
    assert "decoded 11" in out
    assert "step2_lock_send" in out


def test_run_ulock_warns_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "run", "--protocol", "bell", "--bits", "0000", "--lock", "ulock"
    )
    assert code == 0
    assert "leaks" in err
    assert json.loads(out)["protocol"] == "dense_coding:bell:ulock"
    # teleportation: the lock lets each receiver's view depend on the payloads
    code, out, err = run_cli(capsys, "run", "--teleport", "ulock")
    assert code == 0
    assert err.startswith("warning: the hadamard-cnot lock") and "payloads" in err
    assert json.loads(out)["protocol"] == "teleportation:ulock2:n=2"


def test_run_teleport_qft(capsys):
    code, out, _ = run_cli(capsys, "run", "--teleport", "qft", "--n", "3", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    fidelities = data["outcomes"]["fidelities"]
    assert set(fidelities) == {"B1", "B2", "B3"}
    assert all(abs(f - 1.0) < 1e-10 for f in fidelities.values())


def test_run_teleport_default_payload_is_plus_state(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--teleport", "qft", "--n", "1", "--snapshots"
    )
    assert code == 0
    data = json.loads(out)
    first = data["steps"][0]
    assert first["name"] == "step0_init"
    amplitudes = np.array(first["state"]["re"]).ravel()
    expected = np.zeros(8)
    expected[[0, 3, 4, 7]] = 0.5  # (|0>+|1>)/sqrt2 on T1, fresh pair on (A1, B1)
    assert_allclose(amplitudes, expected, atol=1e-12)


def test_run_teleport_with_payload_file(capsys, tmp_path):
    payloads = [
        [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        [[0.6, 0.0], [0.0, 0.8]],
    ]
    f = tmp_path / "payloads.json"
    f.write_text(json.dumps(payloads))
    code, out, err = run_cli(
        capsys, "run", "--teleport", "ulock", "--states", str(f), "--seed", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert all(abs(f - 1.0) < 1e-10 for f in data["outcomes"]["fidelities"].values())


def test_run_teleport_renormalizes_with_warning(capsys, tmp_path):
    f = tmp_path / "p.json"
    # the last three have nonzero amplitudes yet a sum|amp|^2 that underflows
    for states, norm in (
        ([[[2.0, 0.0], [0.0, 0.0]], [1, 0]], "2"),
        ([[1e-200, 1e-200], [1, 0]], "1.41421e-200"),
        ([[1e-170, 0], [1, 0]], "1e-170"),
        ([[1e-160, 0], [1, 0]], "1e-160"),
    ):
        f.write_text(json.dumps(states))
        code, out, err = run_cli(capsys, "run", "--teleport", "qft", "--n", "2", "--states", str(f))
        assert code == 0
        assert err == f"warning: payload 1 renormalized (norm was {norm})\n"
        fidelities = json.loads(out)["outcomes"]["fidelities"].values()
        assert all(abs(v - 1.0) < 1e-10 for v in fidelities)


def test_payloads_with_subnormal_parts_are_divided_by_their_norm_once(tmp_path):
    states = [[1, 1e-310], [[0.6, 1e-311], [0, 0.8]]]
    f = tmp_path / "p.json"
    f.write_text(json.dumps(states))
    for payload, vec in zip(cli._load_payloads(str(f), 2), ([1, 1e-310], [0.6 + 1e-311j, 0.8j])):
        assert np.array_equal(payload.amplitudes, vec / np.linalg.norm(vec))


@pytest.mark.parametrize(
    "states, message",
    [
        ([[0, [0, 0]], [1, 0]], "payload 1 is the zero vector"),
        ([[1, 0], [{"re": 0}, 0.0]], "payload 2 is the zero vector"),
        ([[[1, 2, 3], 0], [1, 0]], "amplitude must be [re] or [re, im], got [1, 2, 3]"),
        ([[1, 0]], "--states file must hold a list of 2 single-qubit states"),
        ({"T1": [1, 0], "T2": [1, 0]}, "--states file must hold a list of 2 single-qubit states"),
        ([[1, 0, 0], [1, 0]], "payload 1 needs exactly 2 amplitudes"),
        ([[1, 0], 1], "payload 2 needs exactly 2 amplitudes"),
        ([[{"re": 1, "img": 0.5}, 0], [0, 1]], "amplitude keys are 're' and 'im', got 'img'"),
        (
            [[1, 0], [{"x": 0, "im": 1, "RE": 2}, 0]],
            "amplitude keys are 're' and 'im', got 'RE', 'x'",
        ),
    ],
)
def test_run_teleport_names_what_is_wrong_with_a_states_file(capsys, tmp_path, states, message):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(states))
    code, out, err = run_cli(capsys, "run", "--teleport", "qft", "--n", "2", "--states", str(f))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_amplitude_object_reads_a_missing_part_as_zero():
    cases = (({"re": 0.6}, 0.6), ({"im": -0.8}, -0.8j), ({}, 0), ({"im": 1, "re": 2}, 2 + 1j))
    for value, want in cases:
        assert cli._amplitude(value) == want


@pytest.mark.parametrize(
    "argv", [("run", "--protocol", "ghz", "--bits", "0110"), ("verify", "theorem", "--protocol", "ghz")]
)
def test_a_protocol_violation_exits_1(capsys, monkeypatch, argv):
    # Bob's copy of the GHZ channel with a quarter of its weight moved to |001>,
    # outside the GHZ family's span
    layout = states.DENSE_CHANNELS["ghz"]
    leaky = np.sqrt(0.75) * states.ghz(0, 0).amplitudes
    leaky[1] = 0.5
    channel = qlinalg.tensor(
        StateVector(leaky, layout["bob"]), states.ghz(0, 0, layout["charlie"])
    )
    monkeypatch.setattr(states, "initial_state", lambda name: channel)
    code, out, err = run_cli(capsys, *argv)
    message = f"state has weight 2.500e-01 outside the span of the 'ghz' family on {layout['bob']}"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_run_usage_errors(capsys):
    # missing --bits with a dense protocol
    code, _, err = run_cli(capsys, "run", "--protocol", "bell")
    assert code == 2
    assert "--bits" in err
    # malformed bits
    code, _, _ = run_cli(capsys, "run", "--protocol", "bell", "--bits", "012")
    assert code == 2
    # --bits combined with teleportation
    code, _, _ = run_cli(capsys, "run", "--teleport", "qft", "--bits", "0000")
    assert code == 2
    # ulock teleport with the wrong receiver count
    code, _, _ = run_cli(capsys, "run", "--teleport", "ulock", "--n", "3")
    assert code == 2
    # an empty --states value names a file, as in dense mode; it is not "no file"
    code, out, err = run_cli(capsys, "run", "--teleport", "qft", "--n", "2", "--states", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "teleport, n, message",
    [
        ("qft", "100000", "qftN supports 1..6 receivers, got 100000"),
        ("qft", "0", "qftN supports 1..6 receivers, got 0"),
        ("qft", "7", "qftN supports 1..6 receivers, got 7"),
        ("ulock", "100000", "the ulock2 scheme has exactly 2 receivers"),
        ("ulock", "3", "the ulock2 scheme has exactly 2 receivers"),
    ],
)
@pytest.mark.parametrize("with_states", [False, True])
def test_receiver_count_is_refused_before_any_payload_is_built(
    capsys, monkeypatch, tmp_path, teleport, n, message, with_states
):
    built = []
    check = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: built.append(1) or check(self))
    # nor any lock
    monkeypatch.setattr(gates, "qft", lambda n: built.append(("qft", n)))
    monkeypatch.setattr(gates, "lock_operator", lambda: built.append("lock_operator"))
    argv = ["run", "--teleport", teleport, "--n", n]
    if with_states:
        # the count is checked before the file is read
        argv += ["--states", str(tmp_path / "missing.json")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert built == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("run", "--teleport", "qft", "--lock", "ulock"), "--lock"),
        (("run", "--teleport", "ulock", "--lock", "qft"), "--lock"),
        (("run", "--protocol", "bell", "--bits", "0000", "--n", "3"), "--n"),
        (("run", "--protocol", "ghz", "--bits", "0000", "--states", "p.json"), "--states"),
    ],
)
def test_run_rejects_flags_of_the_other_task(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} applies to ")


@pytest.mark.parametrize(
    "lock, task",
    [
        ("qft", "dense_coding"),
        ("ulock", "dense_coding"),
        ("qft", "teleportation"),
        ("ulock", "teleportation"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_verify_lock_reads_wire_and_bare_forms_alike(capsys, tmp_path, lock, task, fmt):
    wire = to_wire(gates.named_gate(lock, 2 if lock == "qft" else None))
    outputs = []
    for form in (wire, {"re": wire["re"], "im": wire["im"]}):
        f = tmp_path / "lock.json"
        f.write_text(json.dumps(form))
        outputs.append(
            run_cli(capsys, "verify", "lock", "--matrix", str(f), "--task", task, "--format", fmt)
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (0 if lock == "qft" else 1)
    if fmt == "table":
        # a view reveals nothing only when it does not depend on the input
        views = [line for line in outputs[0][1].splitlines() if line.startswith("  view ")]
        assert len(views) == 2
        assert all(("reveals nothing" in line) == (lock == "qft") for line in views)


# Malformed input: each case must exit 2 with a message and print nothing on stdout.
_BAD_AMPLITUDES = [{"re": "1"}, None, [1, None], True, "1+1j", 10**400]
_BAD_MATRICES = [
    {"re": {"a": 1}},
    {"re": [[1, 0], [0, 1]], "im": {"x": 1}},
    {"labels": 5, "shape": [2, 2], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    [[1, 0], [0, 1]],
    {"re": [[10**400, 0], [0, 1]]},
    # the 4x4 identity with strings, booleans or null for numbers
    {"re": [[str(int(i == j)) for j in range(4)] for i in range(4)]},
    {"im": [["0"] * 4] * 4, "re": np.eye(4, dtype=int).tolist()},
    {"re": [[i == j for j in range(4)] for i in range(4)]},
    {"re": [[1, None, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
]


@pytest.mark.parametrize(
    "kind, data",
    [("states", [[amp, 0], [1, 0]]) for amp in _BAD_AMPLITUDES]
    + [("matrix", m) for m in _BAD_MATRICES]
    # finite amplitudes whose norm overflows a float
    + [("states", [[1e308, 1e308], [1, 0]])],
    ids=[f"states-{a!r:.20}" for a in _BAD_AMPLITUDES]
    + [f"matrix-{m!r:.40}" for m in _BAD_MATRICES]
    + ["states-norm-overflows"],
)
def test_malformed_input_exits_2_with_a_message(capsys, tmp_path, kind, data):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    if kind == "states":
        argv = ("run", "--teleport", "ulock", "--states", str(f))
    else:
        argv = ("verify", "lock", "--matrix", str(f), "--task", "dense_coding")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# json reads NaN, Infinity and -Infinity; such a part is named, not taken for an overflow
_PAYLOAD_REFUSALS = {
    f"{part}-{value}": (
        [[1, 0], [[value, 0.0] if part == "re" else [0.6, value], [0.8, 0]]],
        f"payload 2 has a non-finite amplitude part: {value!r}",
    )
    for part in ("re", "im")
    for value in (float("nan"), float("inf"), float("-inf"))
}
_PAYLOAD_REFUSALS["norm-overflows"] = (
    [[[1e308, 1e308], [1, 0]], [1, 0]],
    "payload 1 is too large to normalize: sum|amp|^2 overflows",
)


@pytest.mark.parametrize("case", sorted(_PAYLOAD_REFUSALS))
def test_payload_refusals_name_the_value(capsys, tmp_path, case):
    data, message = _PAYLOAD_REFUSALS[case]
    f = tmp_path / "payloads.json"
    f.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "run", "--teleport", "ulock", "--states", str(f))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_argparse_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--protocol", "qubitfoam", "--bits", "0000"])
    assert exc.value.code == 2
    # each message names the flag and the value
    for argv, flag, value in (
        (["run", "--protocol", "bell", "--bits", "0000", "--lock", "nope"], "--lock", "'nope'"),
        (["run", "--protocol", "bell", "--bits", "0000", "--seed", "-3"], "--seed", "'-3'"),
        (["run", "--teleport", "qft", "--seed", "-3"], "--seed", "'-3'"),
        (["verify", "counterexample", "--seed", "-3"], "--seed", "'-3'"),
        (["run", "--teleport", "qft", "--seed", "abc"], "--seed", "'abc'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"error: argument {flag}: " in err and value in err.splitlines()[-1]


def test_verify_theorem(capsys):
    for channel in ("bell", "ghz", "w"):
        code, out, _ = run_cli(capsys, "verify", "theorem", "--protocol", channel)
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["valid_lock"] is False
    assert data["notes"]["recoverable_bits"]["A1B"] == ["b1"]


def test_verify_counterexample_takes_its_default_seed_from_the_analysis(capsys, monkeypatch):
    seeds = []
    resolve = analysis.resolve_rng
    monkeypatch.setattr(analysis, "resolve_rng", lambda seed: seeds.append(seed) or resolve(seed))
    default = run_cli(capsys, "verify", "counterexample")
    assert default == run_cli(capsys, "verify", "counterexample", "--seed", "1789")
    assert seeds == [1789, 1789]


def test_dump_gate_help_lists_every_named_gate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump-gate", "--help"])
    assert exc.value.code == 0
    assert "|".join(gates._NAMED_GATES) in capsys.readouterr().out


def test_verify_counterexample_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "counterexample", "--format", "table")
    assert code == 0
    assert "PASS" in out
    assert "reveals b1" in out


def _check_lines(out: str) -> list[str]:
    keep = ("  ok ", "  FAIL ", "valid lock ", "result ")
    return [line for line in out.splitlines() if line.startswith(keep)]


def _theorem_checks(bob: str, charlie: str) -> list[str]:
    per_view = ("encoding_independent", "closed_form", "no_bit_recoverable")
    return [f"  ok   {check}:{view}" for view in (bob, charlie) for check in per_view]


@pytest.mark.parametrize(
    ("channel", "bob", "charlie"),
    [("bell", "A1B", "A2C"), ("ghz", "A1B1B2", "A2C1C2"), ("w", "A1B1B2", "A2C1C2")],
)
def test_verify_theorem_table_check_order(capsys, channel, bob, charlie):
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--protocol", channel, "--format", "table"
    )
    assert code == 0
    assert _check_lines(out) == _theorem_checks(bob, charlie) + [
        "  ok   decode_correct",
        "valid lock True",
        "result     PASS",
    ]


def test_verify_lock_dense_table_check_order(capsys, tmp_path):
    for gate, mark, valid, result in (
        (("qft", "--n", "2"), "ok  ", "True", "PASS"),
        (("ulock",), "FAIL", "False", "FAIL"),
    ):
        _, out, _ = run_cli(capsys, "dump-gate", *gate)
        f = tmp_path / f"{gate[0]}.json"
        f.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding",
            "--format", "table",
        )
        assert code == (0 if result == "PASS" else 1)
        assert _check_lines(out) == [
            f"  {mark} encoding_independent:A1B",
            f"  {mark} encoding_independent:A2C",
            "  ok   decode_correct",
            f"valid lock {valid}",
            f"result     {result}",
        ]


def test_verify_lock_roundtrip_through_dump(capsys, tmp_path):
    # dump the Fourier lock, feed it back: valid for both tasks
    _, out, _ = run_cli(capsys, "dump-gate", "qft", "--n", "2")
    f = tmp_path / "lock.json"
    f.write_text(out)
    for task in ("dense_coding", "teleportation"):
        code, report, _ = run_cli(
            capsys, "verify", "lock", "--matrix", str(f), "--task", task
        )
        assert code == 0, task
        assert json.loads(report)["valid_lock"] is True


def test_verify_lock_rejects_bad_lock(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "dump-gate", "ulock")
    f = tmp_path / "ulock.json"
    f.write_text(out)
    code, report, _ = run_cli(
        capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding"
    )
    assert code == 1
    assert json.loads(report)["valid_lock"] is False


def test_verify_lock_plain_nested_matrix(capsys, tmp_path):
    f = tmp_path / "id.json"
    f.write_text(json.dumps({"re": np.eye(4).tolist()}))
    code, report, _ = run_cli(
        capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding"
    )
    assert code == 1  # identity is a well-formed but invalid lock
    assert json.loads(report)["lock_used"] == "custom"


def test_verify_lock_names_both_parts_when_their_shapes_differ(capsys, tmp_path):
    f = tmp_path / "mismatch.json"
    f.write_text(json.dumps({"re": np.eye(4).tolist(), "im": np.zeros((2, 2)).tolist()}))
    code, out, err = run_cli(
        capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding"
    )
    assert (code, out, err) == (2, "", "error: re has shape (4, 4) but im has shape (2, 2)\n")


def test_verify_lock_non_unitary_is_usage_error(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"re": [[1, 1], [0, 1]]}))
    code, _, err = run_cli(
        capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding"
    )
    assert code == 2
    assert "error" in err


def test_verify_lock_names_the_unitarity_deviation(capsys, tmp_path):
    # the Hadamard-CNOT lock rounded to 8 decimals is off by 3.4e-9, over ATOL
    wire = to_wire(gates.lock_operator())
    wire["re"] = np.round(np.array(wire["re"]), 8).tolist()
    f = tmp_path / "ulock8.json"
    f.write_text(json.dumps(wire))
    code, out, err = run_cli(
        capsys, "verify", "lock", "--matrix", str(f), "--task", "dense_coding"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: matrix is not unitary: max|U^H U - I| = 3.36e-09 exceeds ATOL = 1e-10\n"
    )


def test_dump_gate_literals(capsys):
    code, out, _ = run_cli(capsys, "dump-gate", "qft", "--n", "2")
    assert code == 0
    data = json.loads(out)
    got = np.array(data["re"]) + 1j * np.array(data["im"])
    assert_allclose(got, gates.qft(2).entries, atol=0)


def test_dump_gate_unknown(capsys):
    code, _, err = run_cli(capsys, "dump-gate", "frobnicate")
    assert code == 2
    assert "unknown gate" in err


def test_dump_state(capsys):
    code, out, _ = run_cli(capsys, "dump-state", "phi01")
    assert code == 0
    data = json.loads(out)
    assert_allclose(
        np.array(data["re"]).ravel(),
        [1 / np.sqrt(2), 0.0, 0.0, -1 / np.sqrt(2)],
        atol=1e-15,
    )


def test_dump_full_channel_state(capsys):
    code, out, _ = run_cli(capsys, "dump-state", "ghz")
    assert code == 0
    assert json.loads(out)["labels"] == ["A1", "B1", "B2", "A2", "C1", "C2"]


@pytest.mark.parametrize("name", ["qft", "identity"])
def test_dump_gate_rejects_more_than_ten_qubits(capsys, name):
    code, out, err = run_cli(capsys, "dump-gate", name, "--n", "11")
    assert code == 2
    assert out == ""
    assert err == "error: 11 qubits requested; qft and identity are capped at 10 qubits\n"


def test_dump_gate_help_states_the_cap(capsys):
    with pytest.raises(SystemExit):
        main(["dump-gate", "--help"])
    assert "qft/identity (1..10)" in capsys.readouterr().out


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_float_array_list)


def _float_array_list(obj):
    """json's ``default`` hook: a 2-D float64 array as its ``tolist()``, else json's refusal."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        return obj.tolist()
    return json.JSONEncoder().default(obj)


def test_json_output_is_what_json_dumps_writes(capsys, tmp_path):
    lock = tmp_path / "qft2.json"
    lock.write_text(_dumps(to_wire(gates.qft(2))))
    for argv in (
        ("dump-gate", "qft", "--n", "5"),
        ("dump-state", "ghz"),
        ("run", "--teleport", "qft", "--n", "3", "--snapshots"),
        ("verify", "lock", "--matrix", str(lock), "--task", "teleportation"),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert out == _dumps(json.loads(out)) + "\n", argv


_SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, float("nan"), float("inf"), float("-inf")
]
_SPECIAL_KEYS = ["", '"', "\\", "\n\t\r", "\x00\x1f\x7f", "é", "日本", "😀", "\ud800", "\u2028"]
_floats = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_keys = st.text() | st.sampled_from(_SPECIAL_KEYS)


def _draw_matrix(draw) -> np.ndarray:
    """A float64 matrix, on both sides of the writer's size threshold."""
    shape = (draw(st.integers(1, 32)), draw(st.integers(1, 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array(draw(st.lists(_floats, min_size=1, max_size=6)))
        return rng.choice(pool, shape)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


@st.composite
def _float_matrices(draw):
    """Lists of equal-length float lists."""
    rows = _draw_matrix(draw).tolist()
    if draw(st.booleans()):
        # one entry of another type takes the matrix off the fast path
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        rows[row][col] = draw(st.sampled_from([None, 1, True, np.float64(0.5), "x", []]))
    return rows


@st.composite
def _float_arrays(draw):
    """2-D float64 arrays, some strided: a transpose, or a complex array's real or imag part."""
    values = _draw_matrix(draw)
    view = draw(st.sampled_from(["contiguous", "transposed", "real", "imag"]))
    if view == "contiguous":
        return values
    if view == "transposed":
        return np.ascontiguousarray(values.T).T
    cplx = np.empty(values.shape, dtype=complex)
    setattr(cplx, view, values)
    return getattr(cplx, view)


_json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _floats
    | _keys
    | _float_matrices()
    | _float_arrays(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_keys, children, max_size=5),
    max_leaves=12,
)


_SPECIAL_ROW = np.array([-0.0, 0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf, 0.1])
# NaNs with other payload bits than np.nan's: distinct keys that all print NaN
_OTHER_NANS = np.array(
    [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)
# Matrices that cli._distinct_ranks ranks on each of its paths, with the index of
# the multiplier that does, or None for np.unique: a Haar unitary's 256 distinct
# values in 256 entries would need a table of 2 * 256**2 slots.
_RANKED = {
    "special values": (np.resize(np.concatenate((_SPECIAL_ROW, _OTHER_NANS)), (16, 16)), 0),
    "small integers": (np.resize(np.arange(5.0), (16, 16)), 1),
    "qft(5) real part": (qlinalg._wire_arrays(gates.qft(5))["re"], 2),
    "Haar real part": (random_unitary(np.random.default_rng(7), 4).entries.real, None),
}


@settings(max_examples=80, deadline=None)
@given(_json_like)
@example(_RANKED["special values"][0])
@example(_RANKED["small integers"][0])
@example(_RANKED["qft(5) real part"][0])
@example(_RANKED["Haar real part"][0])
@example([[-0.0, 0.0], [0.0, -0.0]])
@example({"re": [[0.0] * 300, [-0.0] * 300], "im": [[5e-324] * 300, [float("nan")] * 300]})
@example(to_wire(gates.qft(8)))
@example([[], []])
@example({"b": ({"z": 1, "a": (1.5, [])},), "a": {}})
@example({1: "one", 0: [[0.5]]})
@example({"re": np.zeros((0, 3)), "im": [np.zeros((3, 0))], "x": np.zeros((0, 0))})
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == _dumps(obj)


def test_json_writer_rejects_what_json_rejects():
    other_arrays = (np.zeros(3), np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2, 2)))
    for obj in ({"k": np.int64(1)}, {"k": [object()]}, {1: "a", "b": 2}, *other_arrays):
        with pytest.raises(TypeError) as want:
            _dumps(obj)
        with pytest.raises(TypeError) as got:
            cli._json_text(obj)
        assert str(got.value) == str(want.value)


# around the threshold, and long single columns (a state's amplitudes) well past it
@pytest.mark.parametrize(
    "size", [cli._DISTINCT_MIN_ENTRIES + d for d in (-1, 0, 1)] + [4096, 4097]
)
@pytest.mark.parametrize("columns", [1, 3, "all"])
def test_array_writer_special_values_around_the_threshold(size, columns):
    values = np.resize(_SPECIAL_ROW, size)
    if columns == "all":
        shape = (1, size)
    elif size % columns:
        shape = (size, 1)
    else:
        shape = (size // columns, columns)
    arr = values.reshape(shape)
    assert cli._json_text(arr) == _dumps(arr)
    # the same values as the real and the imaginary part of a complex array
    cplx = np.empty(shape, dtype=complex)
    cplx.real, cplx.imag = arr, arr[::-1]
    for part in (cplx.real, cplx.imag):
        assert not part.flags.contiguous
        assert cli._json_text(part) == _dumps(part)


def _ranked_with(monkeypatch, matrix, multipliers):
    """``cli._distinct_ranks`` of ``matrix``'s keys with these multipliers and the
    matrix's text, and whether they called ``np.unique``."""
    unique, calls = np.unique, []

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_RANK_MULTIPLIERS", multipliers)
        patch.setattr(np, "unique", spy)
        ranked = cli._distinct_ranks(matrix.view(np.uint64))
        text = cli._json_text(matrix)
    return ranked, text, bool(calls)


@pytest.mark.parametrize("name", list(_RANKED))
def test_distinct_ranks_are_np_uniques_on_every_path(monkeypatch, name):
    matrix, path = _RANKED[name]
    keys = matrix.view(np.uint64)
    bits, inverse = np.unique(keys, return_inverse=True)
    multipliers = cli._RANK_MULTIPLIERS
    # no multiplier before the one that ranks the matrix is injective on its keys
    for i in range(len(multipliers)):
        assert _ranked_with(monkeypatch, matrix, multipliers[: i + 1])[2] == (path is None or i < path)
    # a multiplier of 0 sends every key to one slot, so the next one ranks them
    for tried in (multipliers, (0, *multipliers)):
        (got_bits, got_inverse), text, fell_back = _ranked_with(monkeypatch, matrix, tried)
        assert fell_back == (path is None)
        assert np.array_equal(got_bits, bits)
        assert np.array_equal(got_inverse, inverse.reshape(keys.shape))
        assert text == _dumps(matrix)


def test_distinct_ranks_keep_every_nan_payload():
    bits, _ = cli._distinct_ranks(_RANKED["special values"][0].view(np.uint64))
    assert len(bits) == len(_SPECIAL_ROW) + len(_OTHER_NANS) == 12


def _golden_dumps() -> dict[str, str]:
    return json.loads((GOLDEN / "dump_sha256.json").read_text())


@pytest.mark.parametrize("argv", sorted(_golden_dumps()))
def test_dump_output_is_byte_identical_to_the_list_writer(capsys, argv):
    # digests of each call's stdout when both commands wrote to_wire's lists
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _golden_dumps()[argv]
    command, name, *n = argv.split()
    if n and int(n[-1]) > 8:
        # the 9- and 10-qubit digests were recorded from output that equalled
        # json.dumps; re-encoding up to 2**21 floats in pure Python takes seconds
        return
    if command == "dump-gate":
        obj = gates.named_gate(name, int(n[-1]) if n else None)
    elif name in ("bell", "ghz", "w"):
        obj = states.initial_state(name)
    else:
        obj = states.named_state(name)
    assert out == _dumps(to_wire(obj)) + "\n"


def _golden_verifies() -> dict[str, str]:
    return json.loads((GOLDEN / "verify_sha256.json").read_text())


@pytest.mark.parametrize("argv", sorted(_golden_verifies()))
def test_claim_check_output_is_byte_identical_to_the_protocol_runs(capsys, argv):
    # digests of each call's stdout when both claim checks ran 16 protocol transcripts
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _golden_verifies()[argv]


@pytest.mark.parametrize(
    "argv", ["verify theorem --protocol bell", "verify theorem --protocol bell --format table"]
)
def test_the_module_entry_point_prints_the_golden_output(argv):
    # ``python -m simulq.cli`` in a fresh interpreter runs the module's ``__main__`` line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "simulq.cli", *argv.split()],
        capture_output=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == _golden_verifies()[argv]


def _golden_locks() -> dict[str, dict]:
    # lock_teleportation_sha256.json holds the teleportation verdicts of the same
    # five matrices, recorded from the tree before the counterexample sampled stacks
    return {
        **json.loads((GOLDEN / "lock_sha256.json").read_text()),
        **json.loads((GOLDEN / "lock_teleportation_sha256.json").read_text()),
    }


@pytest.mark.parametrize("argv", sorted(_golden_locks()))
def test_lock_verdict_output_is_byte_identical_to_the_per_encoding_loops(capsys, argv):
    # exit codes and stdout digests of each call when the dense sweep checked the
    # span one encoding at a time and its report averaged, differenced and took
    # maxima one bit or one pair at a time; the matrices are under golden/locks
    args = [str(GOLDEN / "locks" / a) if a.endswith(".json") else a for a in argv.split()]
    code, out, err = run_cli(capsys, *args)
    want = _golden_locks()[argv]
    assert (code, err) == (want["exit"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    dense_json = "dense_coding" in argv and "--format" not in argv
    if argv.startswith("verify lock --matrix haar") and dense_json:
        # the Haar locks leak both of a receiver's dense coding bits partly, so
        # their digests pin trace distances strictly between 0 and 1
        for sub in json.loads(out)["per_subsystem"].values():
            assert len(sub["leaky_bits"]) == 2
            distances = [sub["bit_evidence"][b]["avg_trace_distance"] for b in sub["leaky_bits"]]
            assert all(ATOL < d < 1.0 for d in distances)


def _golden_runs() -> dict[str, dict]:
    return json.loads((GOLDEN / "run_dense_sha256.json").read_text())


@pytest.mark.parametrize("argv", sorted(_golden_runs()))
def test_dense_run_output_is_byte_identical_to_the_recorded_runs(capsys, argv):
    # exit codes and stdout and stderr digests of dense runs under both locks, with
    # and without snapshots: they pin the residuals contract forms, the outcome
    # measure_in_family draws and every intercepted view
    code, out, err = run_cli(capsys, *argv.split())
    want = _golden_runs()[argv]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    assert hashlib.sha256(err.encode()).hexdigest() == want["stderr_sha256"]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_run_without_snapshots_builds_no_payload_register(capsys, monkeypatch, fmt):
    # every snapshot comes from one builder, which raises; the shared pairs
    # are read off the lock as a matrix, so nothing is tensored at all
    def refuse(*args):
        raise AssertionError("a register was built")

    monkeypatch.setattr(protocols, "_snapshot_register", refuse)
    monkeypatch.setattr(qlinalg, "tensor", refuse)
    code, out, err = run_cli(capsys, "run", "--teleport", "qft", "--n", "6", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert out == (GOLDEN / "run_teleport_qft_n6.json").read_text()


def test_run_with_snapshots_builds_each_register_once(capsys, monkeypatch):
    built = []

    def counted(rows, cols, order):
        built.append(rows.size * cols.size)
        return outer(rows, cols, order)

    outer = protocols._ungrouped_outer
    monkeypatch.setattr(protocols, "_ungrouped_outer", counted)
    code, out, err = run_cli(capsys, "run", "--teleport", "qft", "--n", "3", "--snapshots")
    assert (code, err) == (0, "")
    # steps 2 and 3 share one register; steps 0, 1, 4 and 5 have one each
    assert built == [512] * 5
    with gzip.open(GOLDEN / "run_teleport_qft_n3_snapshots.json.gz", "rt") as fh:
        assert out == fh.read()


def _golden_run_outputs() -> dict[str, dict]:
    return json.loads((GOLDEN / "run_sha256.json").read_text())


@pytest.mark.parametrize("argv", sorted(_golden_run_outputs()))
def test_run_output_is_byte_identical_to_the_list_writer(capsys, argv):
    # exit codes and stdout and stderr digests of tables and teleport snapshots
    # when `run` printed to_dict's lists; the payload file is under golden/states
    args = [str(GOLDEN / "states" / a) if a.endswith(".json") else a for a in argv.split()]
    code, out, err = run_cli(capsys, *args)
    want = _golden_run_outputs()[argv]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    assert hashlib.sha256(err.encode()).hexdigest() == want["stderr_sha256"]


def _dense_run(channel, lock):
    argv = f"run --protocol {channel} --lock {lock} --bits 0110 --seed 4"
    lock_gate = protocols._LOCKS[lock]()
    return argv, lambda: protocols.run_dense_coding_with_lock(
        channel, (0, 1), (1, 0), lock_gate, lock_name=lock, seed=4
    )


def _teleport_run(scheme, n, states_file=None):
    argv = f"run --teleport {scheme} --n {n} --seed 4"
    if states_file is None:
        payloads = cli._default_payloads(n)
    else:
        argv += f" --states {GOLDEN / 'states' / states_file}"
        payloads = cli._load_payloads(GOLDEN / "states" / states_file, n)
    inp = protocols.TeleportInput("ulock2" if scheme == "ulock" else "qftN", payloads, n)
    return argv, lambda: protocols.run_teleportation(inp, seed=4)


_DIFFERENTIAL_RUNS = {
    "bell-qft": _dense_run("bell", "qft"),
    "w-ulock": _dense_run("w", "ulock"),
    "teleport-qft-1": _teleport_run("qft", 1),
    "teleport-ulock": _teleport_run("ulock", 2),
    "teleport-qft-3-states": _teleport_run("qft", 3, "payloads3.json"),
}


@pytest.mark.parametrize("snapshots", [False, True])
@pytest.mark.parametrize("case", sorted(_DIFFERENTIAL_RUNS))
def test_run_prints_the_public_dict_as_json_dumps_writes_it(capsys, case, snapshots):
    # `run` formats its matrices from arrays; to_dict gives them as lists
    argv, transcript = _DIFFERENTIAL_RUNS[case]
    args = argv.split() + ["--snapshots"] * snapshots
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    data = transcript().to_dict(include_snapshots=snapshots)
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


# Earlier calls run the parser's error, help and non-default paths, so the
# last call shows that nothing of theirs outlives them (`--lock` stays qft).
_PARSER_REUSE_CALLS = (
    ("run", "--protocol", "qubitfoam", "--bits", "0000"),
    ("--help",),
    ("run", "--protocol", "ghz", "--lock", "ulock", "--bits", "0110", "--format", "table"),
    ("run", "--teleport", "qft", "--n", "3"),
    ("run", "--protocol", "bell", "--bits", "1001"),
)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_matches_a_fresh_one(capsys):
    fresh = []
    for argv in _PARSER_REUSE_CALLS:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in _PARSER_REUSE_CALLS]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == ["SystemExit(2)", "SystemExit(0)", 0, 0, 0]
    data = json.loads(reused[-1][1])
    assert data["protocol"] == "dense_coding:bell:qft"
    assert data["outcomes"]["bob"] == [1, 0]


_COLD_AND_WARM = """
import contextlib, io, json, sys
from simulq import cli, gates
from simulq.qlinalg import StateVector, to_wire

with open(sys.argv[1], "w") as fh:
    json.dump(to_wire(gates.qft(2)), fh)
calls = (
    ["verify", "lock", "--matrix", sys.argv[1], "--task", "teleportation"],
    ["verify", "theorem", "--protocol", "ghz"],
)
outputs = []
for argv in calls * 2:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
json.dump(outputs, sys.stdout)
"""


def test_first_verdicts_of_a_process_match_warm_ones(tmp_path):
    # the first verdicts of a fresh interpreter run on constants built at
    # import and fill the per-size caches (branch results, payload masks,
    # register layouts); the repeats reuse every cached object and must print
    # the same
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_AND_WARM, str(tmp_path / "qft2.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    cold_lock, cold_theorem, warm_lock, warm_theorem = json.loads(proc.stdout)
    assert [cold_lock[0], cold_theorem[0]] == [0, 0]
    assert cold_lock == warm_lock
    assert cold_theorem == warm_theorem
    assert json.loads(cold_lock[1])["protocol"] == "teleportation:2 receivers"

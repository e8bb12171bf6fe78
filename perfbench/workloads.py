"""The benchmark's seeded workloads.

A workload is a fixed list of ops (one *pass*) built from a seed.  The
harness repeats the pass, so every op label recurs; each op's check returns
a fingerprint that must be identical on every repeat of that label.

Ops reach simulq through module attributes looked up at call time
(``analysis.verify_theorem``, not a name bound at import), so the tracer's
patched functions are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

import numpy as np

from simulq import analysis, cli, gates, protocols, qlinalg

CHANNELS = ("bell", "ghz", "w")
HAAR_LOCKS = 2
TELEPORT_SIZES = (4, 5, 6)


class CheckFailed(Exception):
    """An op returned output that contradicts what the tests pin."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One call into simulq.

    ``check`` raises :class:`CheckFailed` on wrong output and returns a
    fingerprint that every repeat of ``label`` must reproduce.  ``counts``
    gives layer counters that only the output shows (traced runs only).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Hashable]
    counts: Callable[[Any], dict] = field(default=lambda value: {})


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_payload(rng: np.random.Generator) -> np.ndarray:
    return haar_unitary(rng, 2)[:, 0]


# --- verify_claims ------------------------------------------------------------


def _verdict(report) -> tuple:
    return (
        bool(report.valid_lock),
        bool(report.passed),
        bool(report.end_to_end_correct),
        tuple(sorted((k, bool(v)) for k, v in report.checks.items())),
    )


def _expect_verdict(valid: bool, passed: bool, end_to_end: bool):
    def check(report) -> tuple:
        verdict = _verdict(report)
        expected = (valid, passed, end_to_end)
        expect(
            verdict[:3] == expected,
            f"(valid_lock, passed, end_to_end_correct) is {verdict[:3]}, expected {expected}",
        )
        return verdict

    return check


def _classify(u: qlinalg.Unitary, task: str, channel: str = "bell"):
    return lambda: analysis.classify_locking_unitary(u, task, channel)


def build_verify_claims(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = [
        Op(f"theorem:{ch}", lambda ch=ch: analysis.verify_theorem(ch), _expect_verdict(True, True, True))
        for ch in CHANNELS
    ]
    cex_seed = int(rng.integers(2**31))
    ops.append(
        Op(
            "counterexample",
            lambda: analysis.verify_counterexample(seed=cex_seed),
            _expect_verdict(False, True, True),
        )
    )
    locks = [("qft2", gates.qft(2), True), ("ulock", gates.lock_operator(), False)]
    locks += [
        (f"haar{i}", qlinalg.Unitary(haar_unitary(rng, 4)), False) for i in range(HAAR_LOCKS)
    ]
    for name, u, valid in locks:
        for ch in CHANNELS:
            ops.append(
                Op(f"dense:{name}:{ch}", _classify(u, "dense_coding", ch), _expect_verdict(valid, valid, True))
            )
        ops.append(
            Op(f"teleport:{name}", _classify(u, "teleportation"), _expect_verdict(valid, valid, True))
        )
    return ops


# --- teleport_enum ------------------------------------------------------------


def _check_branches(n: int):
    def check(branches) -> int:
        expect(len(branches) == 4**n, f"{len(branches)} branches, expected {4**n}")
        total = sum(b.probability for b in branches)
        expect(abs(total - 1.0) <= qlinalg.ATOL, f"branch probabilities sum to {total!r}")
        worst = min(min(b.fidelities) for b in branches)
        expect(worst >= 1.0 - qlinalg.ATOL, f"minimum fidelity {worst!r}")
        return len(branches)

    return check


def build_teleport_enum(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in TELEPORT_SIZES:
        payloads = tuple(
            qlinalg.StateVector(haar_payload(rng), (f"T{i + 1}",)) for i in range(n)
        )
        inp = protocols.TeleportInput("qftN", payloads, n)
        ops.append(
            Op(f"enum:qftN:n={n}", lambda inp=inp: protocols.enumerate_teleportation(inp), _check_branches(n))
        )
    return ops


# --- cli_mix ------------------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes


def run_cli(argv: list[str]) -> CliResult:
    """One in-process ``simulq.cli.main(argv)`` call with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue().encode())


def _check_cli(argv: list[str], expected_code: int, verify_json: Callable[[dict], None] | None):
    def check(res: CliResult) -> str:
        expect(res.code == expected_code, f"{argv}: exit {res.code}, expected {expected_code}")
        expect(res.stdout, f"{argv}: empty stdout")
        if verify_json is not None:
            verify_json(json.loads(res.stdout))
        return hashlib.sha256(res.stdout).hexdigest()

    return check


def _decodes(bits: str):
    def verify(payload: dict) -> None:
        got = "".join(map(str, payload["outcomes"]["bob"] + payload["outcomes"]["charlie"]))
        expect(got == bits, f"decoded {got}, sent {bits}")

    return verify


def _recovers(payload: dict) -> None:
    worst = min(payload["outcomes"]["fidelities"].values())
    expect(worst >= 1.0 - qlinalg.ATOL, f"minimum fidelity {worst!r}")


def _rejects_lock(payload: dict) -> None:
    expect(payload["valid_lock"] is False, "a Haar-random lock was accepted")


def _gate_shape(dim: int):
    def verify(payload: dict) -> None:
        expect(payload["shape"] == [dim, dim], f"gate shape {payload['shape']}")

    return verify


def _write_json(workdir: str, name: str, data) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _payload_file(rng: np.random.Generator, workdir: str, name: str, n: int) -> str:
    amps = [[[a.real, a.imag] for a in haar_payload(rng)] for _ in range(n)]
    return _write_json(workdir, name, amps)


def build_cli_mix(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)

    def bits() -> str:
        return "".join(str(b) for b in rng.integers(0, 2, size=4))

    def mseed() -> str:
        return str(int(rng.integers(2**31)))

    # (argv, expected exit code, json check or None for table output)
    calls: list[tuple[list[str], int, Callable | None]] = []
    for ch in CHANNELS:
        for lock in ("qft", "ulock"):
            b = bits()
            argv = ["run", "--protocol", ch, "--lock", lock, "--bits", b, "--seed", mseed()]
            calls.append((argv, 0, _decodes(b)))
    for n in range(1, 7):
        states = _payload_file(rng, workdir, f"payloads_qft{n}.json", n)
        argv = ["run", "--teleport", "qft", "--n", str(n), "--states", states, "--seed", mseed()]
        calls.append((argv, 0, _recovers))
    states = _payload_file(rng, workdir, "payloads_ulock.json", 2)
    calls.append((["run", "--teleport", "ulock", "--states", states, "--seed", mseed()], 0, _recovers))
    ch = CHANNELS[int(rng.integers(len(CHANNELS)))]
    calls.append((["run", "--protocol", ch, "--bits", bits(), "--seed", mseed(), "--format", "table"], 0, None))
    calls.append((["run", "--teleport", "qft", "--n", "3", "--seed", mseed(), "--format", "table"], 0, None))
    b = bits()
    calls.append((["run", "--protocol", "ghz", "--bits", b, "--seed", mseed(), "--snapshots"], 0, _decodes(b)))
    calls.append((["run", "--teleport", "qft", "--n", "3", "--seed", mseed(), "--snapshots"], 0, _recovers))
    lock = qlinalg.to_wire(qlinalg.Unitary(haar_unitary(rng, 4)))
    matrix = _write_json(workdir, "haar_lock.json", lock)
    calls.append((["verify", "lock", "--matrix", matrix, "--task", "dense_coding"], 1, _rejects_lock))
    calls.append((["dump-gate", "qft", "--n", "8"], 0, _gate_shape(256)))
    calls.append((["dump-state", CHANNELS[int(rng.integers(len(CHANNELS)))]], 0, None))
    calls.append((["dump-state", "phi" + bits()[:2]], 0, None))

    return [
        Op(
            " ".join(argv),
            lambda argv=argv: run_cli(argv),
            _check_cli(argv, code, verify),
            lambda res: {"cli.stdout_bytes": len(res.stdout)},
        )
        for argv, code, verify in calls
    ]


_BUILDERS = {
    "verify_claims": build_verify_claims,
    "teleport_enum": build_teleport_enum,
    "cli_mix": build_cli_mix,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """The workload's ops (one pass); input files, if any, go to ``workdir``."""
    return _BUILDERS[name](seed, workdir)


def cold_start(name: str, seed: int, workdir: str) -> None:
    """What ``setup_s`` times in a fresh interpreter, after the imports above.

    For ``cli_mix`` this includes one CLI call, so it is the CLI cold start.
    """
    ops = build(name, seed, workdir)
    if name == "cli_mix":
        ops[0].check(ops[0].call())

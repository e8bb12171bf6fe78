"""Smallest-size self-check of the benchmark harness, so it cannot rot.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_simulq()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# a few ops per workload (by label prefix): enough to reach every layer below
FEW_OPS = {
    "verify_claims": ("theorem:bell", "counterexample", "teleport:ulock"),
    "teleport_enum": ("enum:qftN:n=4",),
    "cli_mix": ("run --protocol bell --lock qft", "run --teleport qft --n 2", "verify lock", "dump-gate", "dump-state phi"),
}
# Per-layer metrics those ops must drive above zero, so that a renamed or
# unwrapped function fails here instead of reading 0.  Always 0 on correct
# code, and so not listed: qlinalg.rejected, measurement.protocol_violations
# and measurement.enumerate_branches.calls (nothing in simulq calls it).
VALIDATION = [f"qlinalg.{c}.calls" for c in ("StateVector", "DensityMatrix", "Unitary")]
NONZERO = {
    "verify_claims": VALIDATION + [
        "qlinalg.apply.calls", "qlinalg.contract.calls", "qlinalg.partial_trace.calls",
        "gates.pauli_encoder.calls", "gates.qft.calls", "gates.lock_operator.calls",
        "states.family.calls", "measurement.measure_in_family.calls",
        "measurement.support_distinguisher.calls", "measurement.sample_projective.calls",
        "protocols.run_dense_coding_with_lock.calls", "protocols.enumerate_teleportation_with_lock.calls",
        "analysis.verify_theorem.calls", "analysis.verify_counterexample.calls",
        "analysis.classify_locking_unitary.calls",
        "analysis.transcripts_per_verdict", "analysis.enumerations_per_verdict",
    ],
    "teleport_enum": VALIDATION + [
        "qlinalg.apply.calls", "qlinalg.apply.bytes_computed", "qlinalg.contract.calls",
        "qlinalg.contract.cmacs_computed", "qlinalg.partial_trace.calls", "qlinalg.tensor.calls",
        "qlinalg.fidelity.calls", "gates.pauli_encoder.calls", "gates.qft.calls",
        "protocols.enumerate_teleportation_with_lock.calls", "protocols.branches", "protocols.branch_yield",
    ],
    "cli_mix": VALIDATION + [
        "qlinalg.to_wire.calls", "gates.qft.calls", "gates.named_gate.calls", "gates.adjoint.calls",
        "states.family.calls", "states.initial_state.calls", "measurement.measure_in_family.calls",
        "protocols.run_dense_coding_with_lock.calls", "protocols.run_teleportation.calls",
        "analysis.classify_locking_unitary.calls", "cli.main.calls", "cli.stdout_bytes", "cli.exit_nonzero",
    ],
}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert E2E == {name: unit for name, unit, _ in run.END_TO_END}
    assert LAYER == {name: unit for name, unit, _ in run.PER_LAYER}
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        better = {name: b for name, _, b in table}
        assert all(m["better"] == better[m["name"]] for m in SPEC[group])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_reports_every_metric(name, tmp_path):
    ops = [op for op in workloads.build(name, 7, str(tmp_path)) if op.label.startswith(FEW_OPS[name])]
    assert len(ops) == len(FEW_OPS[name])
    loop = run.Loop(ops)

    cal = run.Calibrator()
    plain = run.run_untraced(loop, seconds=0, cal=cal)["metrics"]
    plain["setup_s"] = run.measure_setup(name, 7, str(tmp_path), repeats=1, cal=cal)[1][0]
    assert set(plain) == set(E2E)
    assert all(math.isfinite(v) and v > 0 for v in plain.values())

    traced = run.run_traced(loop, seconds=0, workload=name)["metrics"]
    assert set(traced) == set(LAYER)
    assert all(math.isfinite(v) for v in traced.values())
    assert [m for m in NONZERO[name] if not traced[m] > 0] == []
    # untraced: 1 warm-up + 1 timed pass; traced: 1 warm-up + 1 pair
    assert loop.failed == 0 and loop.attempted == 5 * len(loop.ops)


def test_an_unwrapped_function_fails_the_traced_run(monkeypatch, tmp_path):
    from simulq import qlinalg

    loop = run.Loop(workloads.build("teleport_enum", 7, str(tmp_path))[:1])
    monkeypatch.delattr(qlinalg, "partial_trace")  # as if it were renamed
    with pytest.raises(RuntimeError, match="qlinalg.partial_trace.calls"):
        run.run_traced(loop, seconds=0, workload="teleport_enum")


def test_wrong_or_unrepeatable_output_counts_as_failed():
    outputs = iter([1, 1, 2])

    def check(value):
        workloads.expect(value > 0, "non-positive")
        return value

    loop = run.Loop(
        [
            workloads.Op("repeat", lambda: next(outputs), check),
            workloads.Op("raises", lambda: 1 / 0, check),
        ]
    )
    for _ in range(3):
        loop.run_pass()
    # every "raises" op fails, and the third "repeat" differs from the first
    assert (loop.attempted, loop.failed) == (6, 4)


def test_latency_stats_do_not_depend_on_the_pass_count():
    passes = [[1_000_000, 10_000_000], [3_000_000, 30_000_000]]  # two ops, ns
    for repeats in (1, 2, 7):
        metrics, slowest = run.latency_stats(passes * repeats)
        assert slowest == 1
        assert metrics == pytest.approx({"ops_per_s": 4 / 0.044, "op_p50_ms": 6.5, "op_tail_ms": 20.0})


def test_calibration_runs_its_share_and_scales_from_both_sides():
    cal = run.Calibrator()
    assert len(cal.run(0)) == 1  # one chunk at least
    assert sum(cal.run(20 * cal.chunks_ns[0] / run.CAL_SHARE)) >= 20 * cal.chunks_ns[0]
    ref = run.CAL_CHUNK_NS
    # the first latency has only the chunks after it; the others average the
    # mean chunk before and the mean chunk after
    assert run.scale([10, 10, 10], [[ref], [2 * ref, 2 * ref], [ref]]) == pytest.approx([10, 20 / 3, 20 / 3])


def test_sample_tail_keeps_ten_samples_beyond():
    assert run.sample_tail([float(i) for i in range(21)]) == (10.0, pytest.approx(100 * 11 / 21))
    assert run.sample_tail([1.0] * 10) is None


def test_tracer_restores_the_program():
    from simulq import protocols, qlinalg

    from tracing import Tracer

    original = (protocols.apply, qlinalg.StateVector.__post_init__, protocols._LOCKS["ulock"])
    tracer = Tracer()
    tracer.install()
    try:
        assert protocols.apply is not original[0]
        assert protocols._LOCKS["ulock"] is not original[2]
    finally:
        tracer.uninstall()
    assert (protocols.apply, qlinalg.StateVector.__post_init__, protocols._LOCKS["ulock"]) == original


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_contract_line(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "3",
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER if trace == "1" else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert "op_fail_ratio" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""

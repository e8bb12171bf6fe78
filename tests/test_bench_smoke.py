"""Smoke test of the benchmark's pinned ops.

Builds the ``perfbench`` workloads at one seed and runs, through each op's
own check, the ops that exercise every lock verdict (the stacked dense
sweep, the site-block teleportation classifier, the theorem and the
counterexample), the batched branch enumerator, the sampled teleportation
run and the CLI's JSON writer.  A wrong verdict, branch count, probability,
fidelity, exit code or output on these fast paths then fails here, in the
ordinary test run, and not only in a benchmark run.  Every claim check and
three CLI ops also run twice in one process and must repeat their fingerprint.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 3


def _load_workloads():
    # a private module name, so nothing else on sys.path is shadowed, and no
    # bytecode cache, so nothing is written under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


def _ops(workload: str, prefix: str, workdir: Path):
    ops = [op for op in workloads.build(workload, SEED, str(workdir)) if op.label.startswith(prefix)]
    assert ops, f"no {workload} op starts with {prefix!r}"
    return ops


@pytest.mark.parametrize(
    "workload, prefix",
    [
        ("verify_claims", "dense:"),
        ("verify_claims", "teleport:"),
        ("verify_claims", "theorem:"),
        ("verify_claims", "counterexample"),
        ("teleport_enum", "enum:qftN:n=4"),
        ("teleport_enum", "enum:qftN:n=5"),
        ("teleport_enum", "enum:qftN:n=6"),
    ],
)
def test_pinned_ops_pass_their_checks(workload, prefix, tmp_path):
    for op in _ops(workload, prefix, tmp_path):
        op.check(op.call())


@pytest.mark.parametrize("prefix", ["dense:", "teleport:", "theorem:", "counterexample"])
def test_claim_ops_repeat_their_fingerprint(prefix, tmp_path):
    # every verdict run twice in one process, so the indices the dense sweep and
    # its report keep between calls must give the same verdict on a repeat
    for op in _ops("verify_claims", prefix, tmp_path):
        assert op.check(op.call()) == op.check(op.call()), op.label


@pytest.mark.parametrize(
    "start, end",
    [
        ("dump-gate qft ", ""),
        ("run --teleport qft --n 3 ", " --snapshots"),
        ("run --teleport qft --n 6 --states ", ""),
    ],
)
def test_cli_ops_repeat_their_fingerprint(start, end, tmp_path):
    # the large-matrix writer path (qft --n 8), a zero-heavy snapshot
    # transcript and the largest sampled teleportation, each run twice in one
    # process with the parser reused
    ops = [op for op in _ops("cli_mix", start, tmp_path) if op.label.endswith(end)]
    assert len(ops) == 1
    op = ops[0]
    assert op.check(op.call()) == op.check(op.call())

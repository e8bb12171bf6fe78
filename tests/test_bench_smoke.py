"""Smoke test of the benchmark's pinned teleportation verdicts.

Builds the ``perfbench`` workloads at one seed and runs, once each, the ops
that exercise the stacked teleportation lock classifier and the batched
branch enumerator, through each op's own check.  A wrong verdict, branch
count, probability or fidelity on these fast paths then fails here, in the
ordinary test run, and not only in a benchmark run.
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
    "workload, prefix", [("verify_claims", "teleport:"), ("teleport_enum", "enum:qftN:n=4")]
)
def test_pinned_ops_pass_their_checks(workload, prefix, tmp_path):
    for op in _ops(workload, prefix, tmp_path):
        op.check(op.call())

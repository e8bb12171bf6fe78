"""Every layer function the benchmark traces by name exists in simulq, and the
dense lock table still holds the function the benchmark's tracer patches.

``perfbench/run.py --trace 1`` reports ``<layer>.<name>.calls`` for each
name listed in ``BENCHMARK.json`` and raises if the function behind one is
missing, so a rename in ``src`` would break the traced benchmark.  This test
reads the JSON only: importing ``perfbench/run.py`` would pin the BLAS
thread count for the whole test session.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path

import pytest

from simulq import gates, protocols

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _traced_names() -> list[str]:
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    return [m["name"].removesuffix(".calls") for m in metrics if m["name"].endswith(".calls")]


def test_benchmark_lists_traced_names():
    assert len(_traced_names()) >= 20


@pytest.mark.parametrize("traced", _traced_names())
def test_traced_name_exists(traced):
    layer, name = traced.split(".")
    obj = getattr(importlib.import_module(f"simulq.{layer}"), name, None)
    assert inspect.isfunction(obj) or inspect.isclass(obj), f"simulq.{traced} is missing"


def test_lock_table_holds_the_lock_operator_itself():
    # perfbench's tracer test patches this entry and checks it is restored
    assert protocols._LOCKS["ulock"] is gates.lock_operator

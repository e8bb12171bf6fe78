"""Span tracing of simulq's layers, from outside the package.

:meth:`Tracer.install` wraps every public function of the seven simulq
modules, and the ``__post_init__`` validators of ``StateVector``,
``DensityMatrix`` and ``Unitary``.  Several modules bind names with
``from .x import y``, so a wrapper replaces *every* module attribute (and
module-level dict value) that is the original function object, not only the
one in the defining module.  :meth:`Tracer.uninstall` puts the originals
back, so untraced passes run the unmodified program.

Spans (name, start, end, parent span, op id) are kept in flat arrays in
memory and written out by :meth:`Tracer.save` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("qlinalg", "gates", "states", "measurement", "protocols", "analysis", "cli")
VALIDATED_CLASSES = ("StateVector", "DensityMatrix", "Unitary")
VERDICTS = (
    "analysis.verify_theorem",
    "analysis.verify_counterexample",
    "analysis.classify_locking_unitary",
)
DENSE_TRANSCRIPT = "protocols.run_dense_coding_with_lock"
ENUMERATION = "protocols.enumerate_teleportation_with_lock"

_COMPLEX_BYTES = 16


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counters read off array shapes ("computed", not measured): complex
# multiply-accumulates and bytes of operands read plus result written.
def _probe_apply(counts, args, kwargs, result) -> None:
    d = _arg(args, kwargs, 1, "gate").entries.shape[0]
    size = result.amplitudes.size
    counts["qlinalg.apply.cmacs_computed"] += d * size
    counts["qlinalg.apply.bytes_computed"] += _COMPLEX_BYTES * (d * d + 2 * size)


def _probe_contract(counts, args, kwargs, result) -> None:
    d = np.size(_arg(args, kwargs, 1, "bra"))
    rest = result[0].size
    counts["qlinalg.contract.cmacs_computed"] += d * rest
    counts["qlinalg.contract.bytes_computed"] += _COMPLEX_BYTES * (d + d * rest + rest)


def _probe_enumeration(counts, args, kwargs, result) -> None:
    n = len(tuple(_arg(args, kwargs, 0, "payloads")))
    counts["protocols.branches"] += len(result)
    counts["protocols.branches_attempted"] += 4**n


def _probe_cli_main(counts, args, kwargs, result) -> None:
    counts["cli.exit_nonzero"] += result != 0


_PROBES = {
    "qlinalg.apply": _probe_apply,
    "qlinalg.contract": _probe_contract,
    ENUMERATION: _probe_enumeration,
    "cli.main": _probe_cli_main,
}
# The counters that belong to each wrapped function: its probe's, plus
# ``cli.stdout_bytes``, which the cli_mix ops add from their captured output.
# A counter is reported only if its function was wrapped.
COUNTERS = {
    "qlinalg.apply": ("qlinalg.apply.cmacs_computed", "qlinalg.apply.bytes_computed"),
    "qlinalg.contract": ("qlinalg.contract.cmacs_computed", "qlinalg.contract.bytes_computed"),
    ENUMERATION: ("protocols.branches", "protocols.branches_attempted"),
    "cli.main": ("cli.exit_nonzero", "cli.stdout_bytes"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.raised: list[tuple[str, type]] = []  # (span name, exception class)
        self.op_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple[object, object, object]] = []  # (owner, key, original)

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        probe = _PROBES.get(name)
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                tracer._note_raise(exc, name)
                raise
            ends[sid] = clock()
            stack.pop()
            if probe is not None:
                probe(tracer.counts, args, kwargs, result)
            return result

        self._wrappers[id(fn)] = (fn, traced)

    def _note_raise(self, exc: BaseException, name: str) -> None:
        # an exception passes through every enclosing span; record it once,
        # at the innermost span it left
        if not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.raised.append((name, type(exc)))

    def _wrapper_for(self, value):
        hit = self._wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    def install(self) -> None:
        qlinalg = importlib.import_module("simulq.qlinalg")
        if not self._wrappers:
            for layer in LAYERS:
                mod = importlib.import_module(f"simulq.{layer}")
                for attr, value in vars(mod).items():
                    if (
                        inspect.isfunction(value)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")
                    ):
                        self._wrap(value, f"{layer}.{attr}")
            for cls_name in VALIDATED_CLASSES:
                self._wrap(vars(getattr(qlinalg, cls_name))["__post_init__"], f"qlinalg.{cls_name}")
        for cls_name in VALIDATED_CLASSES:
            cls = getattr(qlinalg, cls_name)
            self._patch(cls, "__post_init__", vars(cls)["__post_init__"], setattr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "simulq" or mod_name.startswith("simulq.")):
                continue
            for attr, value in list(vars(mod).items()):
                self._patch(mod, attr, value, setattr)
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        self._patch(value, key, item, dict.__setitem__)

    def _patch(self, owner, key, value, setter) -> None:
        wrapper = self._wrapper_for(value)
        if wrapper is not None:
            setter(owner, key, wrapper)
            self._patched.append((owner, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # --- results ----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def root_span_ns(self) -> int:
        s = self.spans()
        top = s["parent"] < 0
        return int(np.sum(s["end_ns"][top] - s["start_ns"][top]))

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self time and counters for every wrapped name.

        Only what a wrapped function stands behind is reported, so a function
        that was renamed or not wrapped leaves its metrics out instead of
        reading 0.
        """
        s = self.spans()
        dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_total = np.bincount(s["name"], weights=self_ns, minlength=k)

        out: dict[str, float] = {}
        layer_ms = Counter()
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid]) / passes
            out[f"{name}.self_ms"] = self_total[nid] / 1e6 / passes
            layer_ms[name.split(".", 1)[0]] += self_total[nid] / 1e6 / passes
            for key in COUNTERS.get(name, ()):
                out[key] = self.counts[key] / passes
        for layer, ms in layer_ms.items():
            out[f"{layer}.self_ms"] = ms
        stray = set(self.counts) - set(out)
        if stray:
            raise RuntimeError(f"counters with no wrapped function behind them: {sorted(stray)}")

        from simulq.measurement import ProtocolViolation

        out["qlinalg.rejected"] = sum(
            1 for name, cls in self.raised if name.startswith("qlinalg.") and issubclass(cls, ValueError)
        ) / passes
        out["measurement.protocol_violations"] = sum(
            1 for _, cls in self.raised if issubclass(cls, ProtocolViolation)
        ) / passes
        ids = {n: i for i, n in enumerate(self.names)}
        if ENUMERATION in ids:
            attempted = self.counts["protocols.branches_attempted"]
            out["protocols.branch_yield"] = self.counts["protocols.branches"] / attempted if attempted else 0.0
        if all(v in ids for v in VERDICTS):
            for key, target in (
                ("analysis.transcripts_per_verdict", DENSE_TRANSCRIPT),
                ("analysis.enumerations_per_verdict", ENUMERATION),
            ):
                if target in ids:
                    out[key] = self._per_verdict(ids, s["name"], s["parent"], target)
        return out

    def _per_verdict(self, ids: dict, name: np.ndarray, parent: np.ndarray, target: str) -> float:
        """Mean number of ``target`` spans under each verdict that ran any."""
        verdict_ids = {ids[v] for v in VERDICTS}
        per_verdict = Counter()
        for sid in np.flatnonzero(name == ids[target]):
            up = parent[sid]
            while up >= 0 and name[up] not in verdict_ids:
                up = parent[up]
            if up >= 0:
                per_verdict[int(up)] += 1
        return sum(per_verdict.values()) / len(per_verdict) if per_verdict else 0.0

"""simulq benchmark: one closed-loop client running a seeded workload.

Run from the repository root:

    python3 perfbench/run.py --workload verify_claims --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified,
scaled to a reference host speed (see ``Calibrator``).
``--trace 1`` alternates untraced and traced passes over the same ops and
reports per-layer metrics (per pass) plus the tracing overhead.  The last
line of stdout is one JSON object; the lines before it are the report.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, and inherited by every child process:
# the single-threaded BLAS is the baseline (see the note in the report).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, VALIDATED_CLASSES, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120
# Host-speed calibration (see Calibrator): each op is followed by calibration
# chunks for CAL_SHARE of its latency, and latencies are reported as on a host
# where one chunk takes CAL_CHUNK_NS.
CAL_CHUNK_NS = 3_000_000
CAL_SHARE = 0.15

# (name, unit, better)
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER = (
    *[
        (f"qlinalg.{c}.{m}", u, "lower")
        for c in VALIDATED_CLASSES
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    *[
        (f"qlinalg.{f}.{m}", u, "lower")
        for f in ("apply", "contract")
        for m, u in (("calls", "count"), ("self_ms", "ms"), ("bytes_computed", "B"), ("cmacs_computed", "count"))
    ],
    *[
        (f"qlinalg.{f}.{m}", u, "lower")
        for f in ("partial_trace", "tensor", "to_wire", "fidelity")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("qlinalg.rejected", "count", "lower"),
    *[
        (f"gates.{f}.{m}", u, "lower")
        for f in ("pauli_encoder", "qft", "named_gate")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("gates.lock_operator.calls", "count", "lower"),
    ("gates.adjoint.calls", "count", "lower"),
    *[
        (f"states.{f}.{m}", u, "lower")
        for f in ("family", "initial_state")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    *[
        (f"measurement.{f}.{m}", u, "lower")
        for f in ("measure_in_family", "support_distinguisher", "sample_projective")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("measurement.enumerate_branches.calls", "count", "lower"),
    ("measurement.protocol_violations", "count", "lower"),
    *[
        (f"protocols.{f}.{m}", u, "lower")
        for f in ("run_dense_coding_with_lock", "run_teleportation", "enumerate_teleportation_with_lock")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("protocols.branches", "count", "higher"),
    ("protocols.branch_yield", "ratio", "higher"),
    *[
        (f"analysis.{f}.{m}", u, "lower")
        for f in ("verify_theorem", "verify_counterexample", "classify_locking_unitary")
        for m, u in (("calls", "count"), ("self_ms", "ms"))
    ],
    ("analysis.transcripts_per_verdict", "count", "lower"),
    ("analysis.enumerations_per_verdict", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    *[(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS],
    ("trace.overhead_pct", "%", "lower"),
    ("trace.span_excess_pct", "%", "lower"),
)

KNOWN_DEFECT = (
    "known defect, left for a follow-up: with the BLAS thread count unset, some fresh"
    " processes stall an extra 120-140 ms inside the BLAS calls of measure_in_family/apply"
    " in run_teleportation (n=4); this benchmark pins the count to 1"
)
COMPUTED_NOTE = (
    "*_computed counters are derived from array shapes, not measured; the largest register"
    " here (18 qubits, 4 MiB) fits in the L3, so they are not bandwidth measurements"
)


def _import_simulq():
    if not (SRC / "simulq" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import simulq

    if Path(simulq.__file__).resolve().parent != SRC / "simulq":
        raise SystemExit(f"error: imported simulq from {simulq.__file__}, not from {SRC}")
    return simulq


_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.cold_start(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


@dataclass(frozen=True)
class _Record:
    amplitudes: object
    index: int

    def __post_init__(self) -> None:
        if not self.amplitudes.size:
            raise ValueError("empty record")


class Calibrator:
    """A fixed kernel, independent of simulq, that measures the host's speed.

    On a shared 2-vCPU Xeon VM, other tenants slowed every op by up to 1.7x,
    in CPU time as much as wall time, in phases from under a second to
    minutes; a fixed kernel slowed with them.  Scaling each op's latency by
    the kernel's speed just before and after it cut the spread between 30 s windows of
    ``verify_claims`` and ``cli_mix`` by 3-5x.  A chunk mixes what the ops do:
    validated frozen dataclasses, small complex matmuls, JSON encoding and a
    tensordot over a 1 MiB array.  Nothing the program does changes it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.big = (rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16)).reshape(4, -1)
        self.chunks_ns: list[int] = []

    def chunk(self) -> None:
        import numpy as np

        v = self.small[0]
        for i in range(150):
            w = self.small @ v
            v = w / np.linalg.norm(w)
            _Record(v, i)
            json.dumps({"re": float(v[0].real), "i": i})
        for _ in range(3):
            np.tensordot(self.small[:4, :4], self.big, axes=(1, 0))

    def run(self, busy_ns: int) -> list[int]:
        """Runs chunks for CAL_SHARE of ``busy_ns`` (at least one); returns
        their times in ns."""
        times: list[int] = []
        while not times or sum(times) < CAL_SHARE * busy_ns:
            t0 = time.perf_counter_ns()
            self.chunk()
            times.append(time.perf_counter_ns() - t0)
        self.chunks_ns += times
        return times


def scale(latencies_ns: list[int], chunks: list[list[int]]) -> list[float]:
    """Scales each latency to the reference speed, from the calibration
    chunks run just before and just after it (``chunks[i]`` follows
    ``latencies_ns[i]``), so the two bursts bracket the op."""
    scaled = []
    for i, ns in enumerate(latencies_ns):
        around = [statistics.fmean(c) for c in chunks[max(i - 1, 0):i + 1]]
        scaled.append(ns * CAL_CHUNK_NS / statistics.fmean(around))
    return scaled


def measure_setup(
    workload: str, seed: int, workdir: str, repeats: int, cal: Calibrator
) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import simulq and build the
    inputs, raw and scaled to the reference speed."""
    times, chunks = [], []
    for i in range(repeats):
        child_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(child_dir)
        cmd = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed), child_dir]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait returns at exit; wait(timeout=...) polls in steps of
        # up to 50 ms, which would quantise the measurement
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        chunks.append(cal.run(int(times[-1] * 1e9)))
    return times, [ns / 1e9 for ns in scale([int(t * 1e9) for t in times], chunks)]


class Loop:
    """Runs whole passes of a workload's ops and checks every output."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.fingerprints: dict[str, object] = {}

    def run_pass(self, tracer=None, after_op=None) -> list[int]:
        """One pass over the ops; returns each op's latency in ns.

        ``after_op(latency_ns)``, if given, runs after each op, untimed."""
        from workloads import CheckFailed

        latencies = []
        for op in self.ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.attempted
            value = error = None
            t0 = time.perf_counter_ns()
            try:
                value = op.call()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = exc
            latencies.append(time.perf_counter_ns() - t0)
            if after_op is not None:
                after_op(latencies[-1])
            if error is None:
                try:
                    fingerprint = op.check(value)
                    if self.fingerprints.setdefault(op.label, fingerprint) != fingerprint:
                        raise CheckFailed(f"{op.label}: output differs from its first repeat")
                    if tracer is not None:
                        tracer.counts.update(op.counts(value))
                except CheckFailed as exc:
                    error = exc
            if error is not None:
                self.failed += 1
                if self.failed <= 3:
                    print(f"op failed: {op.label}", file=sys.stderr)
                    traceback.print_exception(error, file=sys.stderr)
        return latencies


def latency_stats(passes: list[list[int]]) -> tuple[dict[str, float], int]:
    """ops_per_s, op_p50_ms and op_tail_ms from each pass's op latencies (ns).

    ``op_tail_ms`` is the mean latency of the op that is slowest on average,
    so it is always the same op of the pass: a percentile over all samples
    would move to another op as more passes fit in the run.  Returns the
    metrics and the index of that op.
    """
    samples_ms = [ns / 1e6 for lat in passes for ns in lat]
    mean_ms = [statistics.fmean(repeats) / 1e6 for repeats in zip(*passes)]
    slowest = max(range(len(mean_ms)), key=mean_ms.__getitem__)
    return {
        "ops_per_s": len(samples_ms) / (sum(samples_ms) / 1e3),
        "op_p50_ms": statistics.median(samples_ms),
        "op_tail_ms": mean_ms[slowest],
    }, slowest


def sample_tail(samples_ms: list[float]) -> tuple[float, float] | None:
    """The highest percentile of the samples with at least ten beyond it, as
    (value, percentile); None with ten samples or fewer.  Printed only:
    which op it falls on depends on how many passes fit in the run."""
    ordered = sorted(samples_ms)
    k = len(ordered) - 11
    return None if k < 0 else (ordered[k], 100.0 * (k + 1) / len(ordered))


def run_untraced(loop: Loop, seconds: float, cal: Calibrator) -> dict:
    """End-to-end metrics over whole passes, from every timed sample, each
    scaled to the reference host speed by the calibration chunks after it.
    Means and medians, unlike a minimum, do not drift as more passes fit in
    a run."""
    chunks: list[list[int]] = []

    def calibrate(latency_ns: int) -> None:
        chunks.append(cal.run(latency_ns))

    loop.run_pass(after_op=calibrate)  # warm-up: lazy imports, allocator and caches settle
    chunks.clear()
    cal.chunks_ns.clear()
    passes: list[list[int]] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(loop.run_pass(after_op=calibrate))
    window_s = time.perf_counter() - t0
    k = len(loop.ops)
    flat = scale([ns for lat in passes for ns in lat], chunks)
    scaled = [flat[i:i + k] for i in range(0, len(flat), k)]
    metrics, slowest = latency_stats(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, _ = latency_stats(passes)
    return {
        "metrics": metrics,
        "raw": raw,
        "window_ops_per_s": len(passes) * k / window_s,
        "sample_tail": sample_tail([ns / 1e6 for lat in scaled for ns in lat]),
        "passes": len(passes),
        "slowest": loop.ops[slowest].label,
        "chunk_ms": statistics.median(cal.chunks_ns) / 1e6,
    }


def run_traced(loop: Loop, seconds: float, workload: str) -> dict:
    tracer = Tracer()
    loop.run_pass()
    plain_ns = traced_ns = 0
    passes = 0
    t0 = time.perf_counter()
    while True:
        plain_ns += sum(loop.run_pass())
        tracer.install()
        try:
            traced_ns += sum(loop.run_pass(tracer))
        finally:
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = tracer.layer_metrics(passes)
    metrics["trace.overhead_pct"] = 100.0 * (traced_ns / plain_ns - 1.0)
    metrics["trace.span_excess_pct"] = 100.0 * (tracer.root_span_ns() / plain_ns - 1.0)
    missing = [name for name, _, _ in PER_LAYER if name not in metrics]
    if missing:
        raise RuntimeError(f"per-layer metrics with no traced function behind them: {missing}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.npz"
    tracer.save(str(spans_path))
    return {
        "metrics": {name: float(metrics[name]) for name, _, _ in PER_LAYER},
        "passes": passes,
        "spans_path": spans_path,
        "span_count": int(tracer.spans()["name"].size),
    }


def cache_size(code: int) -> str:
    """glibc sysconf: 191 is _SC_LEVEL2_CACHE_SIZE, 194 is _SC_LEVEL3_CACHE_SIZE."""
    try:
        size = os.sysconf(code)
    except (ValueError, OSError):
        return "unknown"
    return f"{size / 2**20:g} MiB" if size > 0 else "unknown"


def machine_info() -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return [
        f"machine  python {platform.python_version()}  numpy {np.__version__}"
        f"  blas {blas.get('name', '?')} {blas.get('version', '?')}",
        f"machine  blas threads {threads}  nproc {len(os.sched_getaffinity(0))}"
        f"  L2 {cache_size(191)}  L3 {cache_size(194)}  {platform.machine()}",
    ]


def main(argv=None) -> int:
    _import_simulq()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if not args.trace:
            cal = Calibrator()
            setup_raw, setup_scaled = measure_setup(args.workload, args.seed, workdir, SETUP_REPEATS, cal)
        loop = Loop(workloads.build(args.workload, args.seed, workdir))
        if args.trace:
            result = run_traced(loop, args.seconds, args.workload)
        else:
            result = run_untraced(loop, args.seconds, cal)
            result["metrics"]["setup_s"] = statistics.median(setup_scaled)
            result["raw"]["setup_s"] = statistics.median(setup_raw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    lines = [
        f"simulq benchmark  workload={args.workload}  seed={args.seed}"
        f"  seconds={args.seconds:g}  trace={args.trace}",
        *machine_info(),
        f"loop     closed, 1 client, {len(loop.ops)} ops per pass, 1 warm-up pass,"
        f" {result['passes']} {'untraced+traced pass pairs' if args.trace else 'timed passes'}",
    ]
    for name, value in result["metrics"].items():
        lines.append(f"metric   {name:<46} {value:>14.6g} {units[name]}")
    if args.trace:
        lines.append(f"spans    {result['span_count']} written to {result['spans_path'].relative_to(ROOT)}")
        lines.append(f"note     {COMPUTED_NOTE}; L3 here: {cache_size(194)}")
    else:
        lines.append(
            f"scaled   timings are scaled to a host where one calibration chunk takes"
            f" {CAL_CHUNK_NS / 1e6:g} ms; here its median was {result['chunk_ms']:.4g} ms; unscaled: "
            + "  ".join(f"{k} {v:.6g}" for k, v in result["raw"].items())
        )
        lines.append(
            f"samples  {len(loop.ops) * result['passes']} timed; ops_per_s counts op time only;"
            f" unscaled ops over the whole window (calibration included) per second: {result['window_ops_per_s']:.6g}"
        )
        lines.append(f"tail     op_tail_ms is the mean latency of the slowest op: {result['slowest']}")
        if result["sample_tail"] is not None:
            value, pct = result["sample_tail"]
            lines.append(f"tail     over all samples, p{pct:.1f} is {value:.6g} ms with 10 beyond it (not bounded)")
        lines.append(
            f"setup    {len(setup_raw)} fresh interpreters, unscaled: "
            + " ".join(f"{t:.4f}" for t in setup_raw) + " s"
        )
    lines.append(f"metric   {'op_fail_ratio':<46} {loop.failed / loop.attempted:>14.6g} ratio"
                 f" ({loop.failed} of {loop.attempted} ops)")
    lines.append(f"note     {KNOWN_DEFECT}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

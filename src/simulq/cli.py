"""Command line front end.

``simulq run`` executes one protocol and prints its transcript; ``simulq
verify`` machine-checks the locking claims and exits 0 only when every
check passes; ``simulq dump-gate`` / ``simulq dump-state`` print named
operators and states in the JSON wire format, which ``verify lock
--matrix`` accepts back.

Exit codes: 0 success (or verification PASS), 1 protocol violation or
verification FAIL, 2 bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gates, states
from .analysis import classify_locking_unitary, verify_counterexample, verify_theorem
from .measurement import ProtocolViolation
from .protocols import (
    _LOCKS,
    _SCHEMES,
    MAX_RECEIVERS,
    TeleportInput,
    _teleport_layout,
    run_dense_coding_with_lock,
    run_teleportation,
)
from .qlinalg import StateVector, _is_number, _wire_arrays, unitary_from_wire

# What the hadamard-cnot lock gives away in each task; a run that uses it says so.
_ULOCK_WARNING = {
    "dense coding": "warning: the hadamard-cnot lock leaks bob's first bit and charlie's second"
    " bit to anyone holding their qubits; use it to study the failure, not to hide data",
    "teleportation": "warning: the hadamard-cnot lock lets each receiver's view before the"
    " unlock depend on the payloads; use it to study the failure, not to hide data",
}


def _parse_bits(text: str) -> tuple[int, int, int, int]:
    if text is None:
        raise ValueError("--bits is required with --protocol (four bits, e.g. --bits 1001)")
    if len(text) != 4 or any(c not in "01" for c in text):
        raise ValueError(f"--bits wants exactly four 0/1 characters, got {text!r}")
    b = tuple(int(c) for c in text)
    return b  # type: ignore[return-value]


def _amplitude(value) -> complex:
    """An amplitude of JSON numbers: ``x``, ``[re]``, ``[re, im]`` or ``{"re": x, "im": y}``."""
    if isinstance(value, dict):
        if unknown := sorted(value.keys() - {"re", "im"}):
            got = ", ".join(map(repr, unknown))
            raise ValueError(f"amplitude keys are 're' and 'im', got {got}")
        parts = (value.get("re", 0.0), value.get("im", 0.0))
    elif isinstance(value, list):
        if not 1 <= len(value) <= 2:
            raise ValueError(f"amplitude must be [re] or [re, im], got {value!r}")
        parts = (*value, 0.0)[:2]
    else:
        parts = (value, 0.0)
    if not all(map(_is_number, parts)):
        raise ValueError(f"amplitude parts must be JSON numbers, got {value!r}")
    return complex(*parts)


def _load_payloads(path: str, n: int) -> tuple[StateVector, ...]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or len(data) != n:
        raise ValueError(f"--states file must hold a list of {n} single-qubit states")
    payloads = []
    for i, entry in enumerate(data):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"payload {i + 1} needs exactly 2 amplitudes")
        vec = np.array([_amplitude(a) for a in entry], dtype=complex)
        parts = vec.view(np.float64)
        for part in parts.tolist():
            if not math.isfinite(part):
                raise ValueError(f"payload {i + 1} has a non-finite amplitude part: {part!r}")
        if not parts.any():
            raise ValueError(f"payload {i + 1} is the zero vector")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm):
            raise ValueError(f"payload {i + 1} is too large to normalize: sum|amp|^2 overflows")
        exp = 0
        if norm < math.sqrt(sys.float_info.min):
            # sum|amp|^2 underflowed: scaling up by a power of two first is exact
            exp = math.frexp(np.abs(parts).max())[1]
            vec = np.ldexp(parts, -exp).view(complex)
            norm = float(np.linalg.norm(vec))
        unscaled = math.ldexp(norm, exp)
        if abs(unscaled - 1.0) > 1e-6:
            print(
                f"warning: payload {i + 1} renormalized (norm was {unscaled:.6g})",
                file=sys.stderr,
            )
        payloads.append(StateVector(vec / norm, (f"T{i + 1}",)))
    return tuple(payloads)


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take non-negative integers only."""
    try:
        if (seed := int(text)) >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _default_payloads(n: int) -> tuple[StateVector, ...]:
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return tuple(StateVector(plus, (f"T{i + 1}",)) for i in range(n))


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


# A numeric matrix with at least this many entries formats each distinct float
# bit pattern once.  With ranks read by hash (one BLAS thread), that breaks even
# with formatting every entry near 32-64 entries of a gate's few values and is
# ~4x faster at 256; with every value distinct it is 5-15% slower at any size.
_DISTINCT_MIN_ENTRIES = 256


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, written faster.

    With ``indent`` set, json encodes in pure Python, one generator step and
    one ``float.__repr__`` per value.  Every command hands its matrices over
    as the wire format's ``re``/``im`` float64 arrays (``_wire_arrays``), and
    a 2-D float64 ``ndarray`` is written as json writes its ``tolist()``,
    straight from the array: joined in bulk (a 10-qubit gate holds 2**21
    floats), and when large with each distinct value formatted once, as
    gates and states repeat few values many times; each entry's value is
    then found by hash, not by sort (:func:`_distinct_ranks`).  A matrix's
    text joins the output as three pieces, its body uncopied.  Any other
    data, lists of floats included, is written value by value as json
    writes it.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append ``obj`` to ``out``, indented as json does at the depth ``newline`` ends in."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        if obj.size:
            out.extend(_matrix_text(obj, newline))
        else:
            _write_json(obj.tolist(), newline, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        # non-string keys and types json rejects: json's own output (or error),
        # re-indented; json escapes every newline inside a string
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline))


def _float_text(value: float) -> str:
    """A float as json writes it, including its spellings of nan and infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


def _matrix_text(matrix: np.ndarray, newline: str) -> tuple[str, str, str]:
    """A non-empty 2-D float64 array as json writes its ``tolist()``, in three pieces.

    ``newline`` ends in the indent of the array's depth, as for
    :func:`_write_json`.  A large array formats each distinct value once,
    keyed by bit pattern, not by value, so ``-0.0`` and ``0.0`` keep their
    own texts.  Each row is then one join, and the rows one more: the body.
    The brackets around it are separate pieces, so the body is not copied.
    """
    if matrix.size < _DISTINCT_MIN_ENTRIES:
        rows = [list(map(_float_text, row)) for row in matrix.tolist()]
    else:
        bits, inverse = _distinct_ranks(matrix.view(np.uint64))
        texts = np.array(list(map(_float_text, bits.view(np.float64).tolist())), dtype=object)
        rows = texts[inverse].tolist()
    inner = newline + "  "
    cell = inner + "  "
    body = f"{inner}],{inner}[{cell}".join(map(f",{cell}".join, rows))
    return f"[{inner}[{cell}", body, f"{inner}]{newline}]"


# Odd 64-bit multipliers of the multiply-shift hash that ranks a large
# matrix's entries, tried in order until one is injective on its distinct keys.
_RANK_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xBF58476D1CE4E5B9,
    0x94D049BB133111EB,
    0xC2B2AE3D27D4EB4F,
)


def _distinct_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for a 2-D ``uint64`` array, bit for bit.

    The distinct keys come from one sort.  Each key's rank among them is then
    read from a table indexed by a multiply-shift hash, once a multiplier
    maps the ``k`` distinct keys to distinct slots: exact, since every key
    is one of them.  The table has at least ``2 k**2`` slots, and is used
    only while it holds at most two slots per entry; many distinct values,
    or no injective multiplier, take ``np.unique``'s argsort.
    """
    buf = np.sort(keys, axis=None)
    bits = buf[np.concatenate(([True], buf[1:] != buf[:-1]))]
    k = bits.size
    w = (2 * k * k - 1).bit_length()
    if w <= keys.size.bit_length():
        shift = np.uint64(64 - w)
        ranks = np.arange(k, dtype=np.int32)
        table = np.empty(1 << w, dtype=np.int32)
        for m in map(np.uint64, _RANK_MULTIPLIERS):
            slots = (bits * m) >> shift
            table[slots] = ranks
            if np.array_equal(table[slots], ranks):
                hashed = buf.reshape(keys.shape)
                np.multiply(keys, m, out=hashed)
                np.right_shift(hashed, shift, out=hashed)
                return bits, table[hashed]
    del buf
    bits, inverse = np.unique(keys, return_inverse=True)
    return bits, inverse.reshape(keys.shape)


def _fmt_entry(re: float, im: float) -> str:
    re, im = round(re, 4) + 0.0, round(im, 4) + 0.0
    if im == 0.0:
        return f"{re:g}"
    if re == 0.0:
        return f"{im:g}i"
    return f"{re:g}{im:+g}i"


def _matrix_rows(wire: dict) -> list[str]:
    rows = []
    for re_row, im_row in zip(wire["re"].tolist(), wire["im"].tolist()):
        rows.append("  ".join(_fmt_entry(r, i) for r, i in zip(re_row, im_row)))
    width = max(len(r) for r in rows)
    return [f"    {r:<{width}}" for r in rows]


def _render_run_table(payload: dict) -> str:
    lines = [
        f"protocol   {payload['protocol']}",
        f"seed       {payload['seed']}",
        "steps      " + " -> ".join(step["name"] for step in payload["steps"]),
    ]
    outcomes = payload["outcomes"]
    if "bob" in outcomes:
        lines.append(f"bob        decoded {''.join(map(str, outcomes['bob']))}")
        lines.append(f"charlie    decoded {''.join(map(str, outcomes['charlie']))}")
    if "results" in outcomes:
        for label in sorted(outcomes["results"]):
            bits = "".join(map(str, outcomes["results"][label]))
            fid = outcomes["fidelities"][label]
            lines.append(f"{label:10} result {bits}  fidelity {fid:.4f}")
    for key in sorted(payload.get("intercepts", {})):
        stage, _, labels = key.partition("/")
        lines.append(f"intercepted view on ({labels}) after {stage}:")
        lines.extend(_matrix_rows(payload["intercepts"][key]))
    return "\n".join(lines)


def _render_report_table(payload: dict) -> str:
    lines = [f"protocol   {payload['protocol']}", f"lock       {payload['lock_used']}"]
    for name, ok in payload["checks"].items():
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {name}")
    for name, sub in payload["per_subsystem"].items():
        found = sub["recoverable_bits"] + sub["leaky_bits"]
        if found:
            state = "reveals " + ",".join(found)
        else:
            # a view can depend on the input without any one bit of it
            state = "reveals nothing" if sub["independent_of_encoding"] else "depends on the input"
        lines.append(f"  view {name}: {state} (max diff {sub['max_pairwise_diff']:.3e})")
    lines.append(f"valid lock {payload['valid_lock']}")
    lines.append("result     " + ("PASS" if payload["passed"] else "FAIL"))
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    dense = args.protocol is not None
    flags = {"--bits": args.bits, "--lock": args.lock, "--n": args.n, "--states": args.states}
    for flag in ("--n", "--states") if dense else ("--bits", "--lock"):
        if flags[flag] is not None:
            mode = "--teleport, not dense coding" if dense else "dense coding, not --teleport"
            raise ValueError(f"{flag} applies to {mode}")
    if dense:
        bits = _parse_bits(args.bits)
        lock = args.lock or "qft"
        if lock == "ulock":
            print(_ULOCK_WARNING["dense coding"], file=sys.stderr)
        transcript = run_dense_coding_with_lock(
            args.protocol, bits[:2], bits[2:], _LOCKS[lock](), lock_name=lock, seed=args.seed
        )
    else:
        n = 2 if args.n is None else args.n
        scheme = _SCHEMES[args.teleport]
        _teleport_layout(scheme, n)
        if args.states is not None:
            payloads = _load_payloads(args.states, n)
        else:
            payloads = _default_payloads(n)
        inp = TeleportInput(scheme, payloads, n)
        if args.teleport == "ulock":
            print(_ULOCK_WARNING["teleportation"], file=sys.stderr)
        transcript = run_teleportation(inp, seed=args.seed)
    payload = transcript._data(_wire_arrays, args.snapshots)
    if args.format == "json":
        _emit_json(payload)
    else:
        print(_render_run_table(payload))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.what == "theorem":
        report = verify_theorem(args.protocol)
    elif args.what == "counterexample":
        report = verify_counterexample() if args.seed is None else verify_counterexample(args.seed)
    else:
        with open(args.matrix) as fh:
            unitary = unitary_from_wire(json.load(fh))
        report = classify_locking_unitary(unitary, args.task, channel=args.channel)
    payload = report.to_dict()
    if args.format == "json":
        _emit_json(payload)
    else:
        print(_render_report_table(payload))
    return 0 if report.passed else 1


def _cmd_dump_gate(args: argparse.Namespace) -> int:
    _emit_json(_wire_arrays(gates.named_gate(args.name, args.n)))
    return 0


def _cmd_dump_state(args: argparse.Namespace) -> int:
    if args.name in states.DENSE_CHANNELS:
        state = states.initial_state(args.name)
    else:
        state = states.named_state(args.name)
    _emit_json(_wire_arrays(state))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="simulq",
        description="simultaneous dense coding and teleportation with locked channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    channels = tuple(states.DENSE_CHANNELS)

    run = sub.add_parser("run", help="run one protocol and print its transcript")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--protocol", choices=channels, help="dense coding channel")
    which.add_argument("--teleport", choices=tuple(_SCHEMES), help="teleportation scheme")
    run.add_argument("--bits", help="four message bits b1 b2 c1 c2, e.g. 1001 (dense coding)")
    run.add_argument("--lock", choices=tuple(_LOCKS), help="dense coding lock (default qft)")
    run.add_argument(
        "--n",
        type=int,
        help=f"receiver count for --teleport (qft: 1..{MAX_RECEIVERS}, ulock: 2)",
    )
    run.add_argument(
        "--states",
        help="JSON file with one [re+im, re+im] amplitude pair per payload"
        " (default: every payload is (|0>+|1>)/sqrt(2))",
    )
    run.add_argument("--seed", type=_seed, default=0, help="measurement seed (default 0)")
    run.add_argument("--format", choices=("json", "table"), default="json")
    run.add_argument(
        "--snapshots", action="store_true", help="include full register snapshots per step"
    )
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="machine-check the locking claims")
    vsub = verify.add_subparsers(dest="what", required=True)
    v_theorem = vsub.add_parser(
        "theorem", help="locked dense coding reveals nothing to either receiver"
    )
    v_theorem.add_argument("--protocol", choices=channels, required=True)
    v_counter = vsub.add_parser(
        "counterexample", help="the hadamard-cnot lock leaks one bit per receiver"
    )
    v_counter.add_argument("--seed", type=_seed, help="support-measurement seed")
    v_lock = vsub.add_parser("lock", help="classify an arbitrary 4x4 unitary as a channel lock")
    v_lock.add_argument("--matrix", required=True, help="JSON file holding the matrix")
    v_lock.add_argument("--task", choices=("dense_coding", "teleportation"), required=True)
    v_lock.add_argument("--channel", choices=channels, default="bell")
    for vp in (v_theorem, v_counter, v_lock):
        vp.add_argument("--format", choices=("json", "table"), default="json")
        vp.set_defaults(func=_cmd_verify)

    dump_gate = sub.add_parser("dump-gate", help="print a named gate as JSON")
    dump_gate.add_argument("name", help="|".join(gates._NAMED_GATES))
    dump_gate.add_argument(
        "--n",
        type=int,
        default=None,
        help=f"qubit count for qft/identity (1..{gates.MAX_GATE_QUBITS})",
    )
    dump_gate.set_defaults(func=_cmd_dump_gate)

    dump_state = sub.add_parser("dump-state", help="print a named state as JSON")
    dump_state.add_argument(
        "name", help="family member like phi01/ghz10/w11, or bell|ghz|w for a full channel"
    )
    dump_state.set_defaults(func=_cmd_dump_state)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ProtocolViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

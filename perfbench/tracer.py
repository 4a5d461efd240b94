"""Spans around the calls into eqkit's public functions, recorded from the benchmark.

The tracer replaces module attributes with timing wrappers; it never edits
``src/``.  A function is wrapped in the namespace its caller looks it up in:
``eqkit.cli`` for what ``cli.main`` calls, ``eqkit.search`` for the sampler and
block oracle inside ``search_rmds``, ``eqkit.circuit`` for the oracles inside
the compilers.  Spans (name, start, end, parent, op id, counts) stay in memory
and are written out when the pass ends.  With ``memory=True`` each span also
records its tracemalloc peak above the level at entry; that mode is run
separately so its overhead never enters the timings.
"""

from __future__ import annotations

import inspect
import math
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Optional

MB = float(1 << 20)


def _eq_name(args) -> str:
    return f"verify.{args['mode']}"


def _eq_note(args, result) -> dict:
    a, q = args["a"], args["q"]
    base = 2 * q - 1 if args["mode"] == "kernel" else q
    return {"steps": base**a.n, "enum_bytes": base**a.n * a.n * 8, "witness": result is not None}


def _combination_rank(rows, total: int) -> int:
    """Position of the sorted index tuple ``rows`` in itertools.combinations order."""
    rank, prev, size = 0, -1, len(rows)
    for i, r in enumerate(rows):
        for v in range(prev + 1, r):
            rank += math.comb(total - 1 - v, size - 1 - i)
        prev = r
    return rank


def _rmds_note(args, result) -> dict:
    a, m, q = args["a"], args["m"], args["q"]
    blocks = math.comb(a.m, m)
    checked = blocks if result is None else _combination_rank(result.rows, a.m) + 1
    return {"steps": blocks * (2 * q - 1) ** a.n, "blocks": checked}


def _search_note(args, result) -> dict:
    found, attempts = result
    return {"attempts": attempts, "hit": found is not None}


def _check_note(args, result) -> dict:
    k = len(args["c"].inputs)
    return {"rows": 1 << k, "enum_bytes": (1 << k) * k * 8}


def _eval_note(args, result) -> dict:
    return {"gates": args["c"].gate_count}


# (module, attribute, span name or name function, note function)
INSTRUMENTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "read_matrix", "matrix.read_matrix", None),
    ("cli", "write_matrix", "matrix.write_matrix", None),
    ("cli", "construct_eq", "construct.construct_eq", None),
    ("cli", "build_crt", "construct.build_crt", None),
    ("cli", "is_eq_q", _eq_name, _eq_note),
    ("circuit", "is_eq_q", _eq_name, _eq_note),
    ("cli", "is_rmds", "verify.is_rmds", _rmds_note),
    ("search", "is_rmds", "verify.is_rmds", _rmds_note),
    ("circuit", "is_rmds", "verify.is_rmds", _rmds_note),
    ("cli", "search_rmds", "search.search_rmds", _search_note),
    ("search", "sample_matrix", "search.sample_matrix", None),
    ("cli", "encode", "decode.encode", None),
    ("cli", "decode", "decode.decode", None),
    ("cli", "compile_eq_circuit", "circuit.compile", None),
    ("cli", "compile_comp_circuit", "circuit.compile", None),
    ("cli", "exactify_to_lt", "circuit.exactify_to_lt", None),
    ("cli", "exhaustive_check", "circuit.exhaustive_check", _check_note),
    ("cli", "eval_circuit", "circuit.eval_circuit", _eval_note),
    ("cli", "read_circuit", "circuit.read_circuit", None),
    ("cli", "write_circuit", "circuit.write_circuit", None),
]

# Every per-layer metric a traced pass reports, with its unit.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "matrix.read_matrix.busy_s": "s",
    "matrix.write_matrix.busy_s": "s",
    "construct.construct_eq.calls": "count",
    "construct.construct_eq.busy_s": "s",
    "construct.build_crt.busy_s": "s",
    "verify.kernel.calls": "count",
    "verify.kernel.busy_s": "s",
    "verify.kernel.steps": "count",
    "verify.kernel.witness_ratio": "1",
    "verify.kernel.peak_mb": "MB",
    "verify.kernel.enum_mb_computed": "MB",
    "verify.injectivity.calls": "count",
    "verify.injectivity.busy_s": "s",
    "verify.injectivity.steps": "count",
    "verify.injectivity.peak_mb": "MB",
    "verify.injectivity.enum_mb_computed": "MB",
    "verify.is_rmds.calls": "count",
    "verify.is_rmds.busy_s": "s",
    "verify.is_rmds.blocks": "count",
    "verify.is_rmds.steps": "count",
    "search.search_rmds.calls": "count",
    "search.search_rmds.busy_s": "s",
    "search.attempts": "count",
    "search.hit_ratio": "1",
    "search.sample_matrix.busy_s": "s",
    "decode.encode.calls": "count",
    "decode.encode.busy_s": "s",
    "decode.decode.calls": "count",
    "decode.decode.busy_s": "s",
    "circuit.compile.self_s": "s",
    "circuit.exactify_to_lt.busy_s": "s",
    "circuit.read_circuit.busy_s": "s",
    "circuit.write_circuit.busy_s": "s",
    "circuit.exhaustive_check.calls": "count",
    "circuit.exhaustive_check.busy_s": "s",
    "circuit.exhaustive_check.rows": "count",
    "circuit.exhaustive_check.peak_mb": "MB",
    "circuit.exhaustive_check.bits_mb_computed": "MB",
    "circuit.eval_circuit.calls": "count",
    "circuit.eval_circuit.busy_s": "s",
    "circuit.eval_circuit.gates": "count",
    "trace.overhead_ratio": "1",
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[dict] = []
        self.op: Optional[int] = None
        self._open: list[dict] = []
        self._memory = memory

    def install(self, modules: dict) -> None:
        """Wrap every instrument in its module; ``modules`` maps 'cli' etc. to eqkit modules."""
        for mod_name, attr, name, note in INSTRUMENTS:
            module = modules[mod_name]
            setattr(module, attr, self._wrap(getattr(module, attr), name, note))

    def _wrap(self, fn: Callable, name, note) -> Callable:
        sig = inspect.signature(fn) if (note or callable(name)) else None

        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            span = self._enter(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if note is not None:
                span.update(note(bound, result))
            return result

        return wrapper

    def _enter(self, name: str) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op,
            "id": len(self.spans),
        }
        if self._memory:
            current, _ = self._settle_peak()
            span["_base"] = span["_peak"] = current
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span: dict) -> None:
        if self._memory:
            self._settle_peak()
            span["peak_bytes"] = span.pop("_peak") - span.pop("_base")
        self._open.pop()
        span["end"] = time.perf_counter()

    def _settle_peak(self) -> tuple[int, int]:
        """Credit the peak since the last reset to every open span, then reset."""
        current, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            s["_peak"] = max(s["_peak"], peak)
        tracemalloc.reset_peak()
        return current, peak


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: every LAYER_METRICS name but the overhead."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    sums: dict[str, int] = defaultdict(int)
    peak_mb: dict[str, float] = defaultdict(float)
    computed_mb: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        calls[name] += 1
        busy[name] += s["end"] - s["start"]
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
        for key in ("steps", "blocks", "attempts", "rows", "gates", "witness", "hit"):
            sums[f"{name}.{key}"] += s.get(key, 0)
        peak_mb[name] = max(peak_mb[name], s.get("peak_bytes", 0) / MB)
        computed_mb[name] = max(computed_mb[name], s.get("enum_bytes", 0) / MB)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"] - child[s["id"]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    special = {
        "verify.kernel.witness_ratio": ratio(sums["verify.kernel.witness"], calls["verify.kernel"]),
        "search.attempts": sums["search.search_rmds.attempts"],
        "search.hit_ratio": ratio(sums["search.search_rmds.hit"], sums["search.search_rmds.attempts"]),
        "circuit.eval_circuit.gates": ratio(sums["circuit.eval_circuit.gates"], calls["circuit.eval_circuit"]),
    }
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif kind == "calls":
            out[metric] = calls[layer]
        elif kind == "busy_s":
            out[metric] = busy[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
        elif kind == "peak_mb":
            out[metric] = peak_mb[layer]
        elif kind.endswith("_computed"):
            out[metric] = computed_mb[layer]
        elif kind in ("steps", "blocks", "rows"):
            out[metric] = sums[metric]
    return out

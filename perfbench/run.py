"""eqkit benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage:
    python3 perfbench/run.py --workload certify --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass of the workload's op list runs
in a fresh interpreter (perfbench/worker.py), one after another, until
``--seconds`` have been spent and at least MIN_PASSES passes are done.
wall_s and cpu_s come from the fastest pass, setup_s and peak_rss_mb are
medians over passes, and op latencies are pooled over all passes.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
MIN_PASSES = 4
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "attempts_per_s": "1/s",
}


def run_pass(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass failed with exit code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_op"] - spawned
    return record


def tail_percentile(ops_per_pass: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it in MIN_PASSES passes."""
    floor = ops_per_pass * MIN_PASSES
    return max(p for p in PERCENTILES if floor * (100 - p) / 100 >= 10)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    latencies = sorted(v for p in passes for v in p["latencies_ms"])
    tail_p = tail_percentile(passes[0]["ops"])
    # Other tenants slow this machine in bursts; the fastest pass is the
    # steadiest estimate of the program's own cost (see README, "Noise").
    fastest = min(passes, key=lambda p: p["wall_s"])
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": fastest["wall_s"],
        "cpu_s": min(p["cpu_s"] for p in passes),
        "op_p50_ms": nearest_rank(latencies, 50),
        "op_tail_ms": nearest_rank(latencies, tail_p),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "attempts_per_s": fastest["work"] / fastest["wall_s"],
    }
    notes = [
        f"passes={len(passes)} ops/pass={passes[0]['ops']} op samples={len(latencies)}",
        f"op_tail_ms is p{tail_p:g} over {len(latencies)} op samples",
    ]
    return values, notes


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    plain = [p for p in passes if p["mode"] == "plain"]
    spans = [p for p in passes if p["mode"] == "spans"]
    memory = [p for p in passes if p["mode"] == "memory"]
    values = {}
    for name in spans[0]["layers"]:
        source = memory if name.endswith(".peak_mb") else spans
        values[name] = statistics.median_low(p["layers"][name] for p in source)
    values["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in spans) / statistics.median(
        p["wall_s"] for p in plain
    )
    base = values["cli.main.busy_s"]
    notes = [f"passes: {len(plain)} plain, {len(spans)} spans, {len(memory)} memory"]
    for name, value in values.items():
        if name.endswith(("busy_s", "self_s")) and name != "cli.main.busy_s" and value >= base / 1000:
            notes.append(f"share {name} = {value / base:.3f} of cli.main.busy_s {base:.4f} s")
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "eqkit" / "__init__.py").is_file():
        print(f"no eqkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cycle = ("plain", "spans", "memory") if args.trace else ("plain",)
    wanted = len(cycle) * (1 if args.trace else MIN_PASSES)
    passes = []
    start = time.monotonic()
    while len(passes) < wanted or time.monotonic() - start < args.seconds:
        elapsed = time.monotonic() - start
        if passes and elapsed * (len(passes) + len(cycle)) / len(passes) > RUN_BUDGET_S:
            break  # one more cycle would overrun the run's time limit
        for mode in cycle:
            passes.append(run_pass(args.workload, args.seed, mode))

    values, notes = per_layer(passes) if args.trace else end_to_end(passes)
    units = LAYER_METRICS if args.trace else END_TO_END_UNITS
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for line in notes + [f"FAILED {f}" for f in dict.fromkeys(failures)]:
        print(line)
    print(f"failed_ratio = {failed}/{attempted}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

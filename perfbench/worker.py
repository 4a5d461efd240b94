"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --mode plain|spans|memory

Imports eqkit from the checkout's ``src/``, writes the seeded inputs, calls
``eqkit.cli.main`` once per op with stdout and stderr captured, then checks
every op against the benchmark's own expectation.  The last stdout line is a
JSON record of the pass.  Nothing is run before the timed ops that touches
their inputs, so process-local caches start cold in every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _import_eqkit():
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the measured set-up)
    import eqkit
    from eqkit import circuit, cli, search

    if SRC not in Path(eqkit.__file__).resolve().parents:
        raise SystemExit(f"eqkit imported from {eqkit.__file__}, not from {SRC}")
    return {"cli": cli, "search": search, "circuit": circuit}


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed op, not a failed run
            code = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory"), default="plain")
    args = parser.parse_args()

    modules = _import_eqkit()
    import tracer as tracing
    import workloads

    cli = modules["cli"]
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        plan = workloads.build(args.workload, args.seed, work)
        failures = []
        for argv in plan.setup:
            code, _, err = _call(cli, argv)
            if code != 0:
                failures.append(f"set-up {' '.join(argv[4:7])}: exit {code} {err.strip()[:80]!r}")
        tracer = None
        if args.mode != "plain":
            tracer = tracing.Tracer(memory=args.mode == "memory")
            tracer.install(modules)
            if args.mode == "memory":
                tracemalloc.start()

        results = []
        first_op = time.monotonic()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op_id, op in enumerate(plan.ops):
            if tracer:
                tracer.op = op_id
            start = time.perf_counter()
            code, out, err = _call(cli, op.argv)
            results.append((time.perf_counter() - start, code, out, err))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.mode == "memory":
            tracemalloc.stop()

        work_done = failed = 0
        for op, (_, code, out, err) in zip(plan.ops, results):
            try:
                problem, units = op.check(code, out, err)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problem, units = f"unreadable output: {exc!r}", 1
            work_done += units
            if problem:
                failed += 1
                failures.append(f"{op.name}: {problem}")
        record = {
            "mode": args.mode,
            "first_op": first_op,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "latencies_ms": [r[0] * 1e3 for r in results],
            "ops": len(plan.ops),
            "failed": failed,
            "work": work_done,
            "failures": failures,
        }
        if tracer:
            record["layers"] = tracing.layer_metrics(tracer.spans)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}-{args.mode}.json"
            spans.write_text(json.dumps(tracer.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

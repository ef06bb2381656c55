"""stedge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
layer, prints the per-layer metrics and a per-crowd-size table, and writes
the spans to ``.perfbench_out/``.  The last line of standard output is
always the result object; the lines before it are a readable report.
Run from the root of a checkout: the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> dict:
    """Pin BLAS/OpenMP threads; must run before numpy is first imported."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return {"nproc": nproc, "blas_threads": threads,
            "python": platform.python_version()}


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def report(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value!r} {unit}")


def main() -> int:
    env = pin_threads()
    if not (ROOT / "src" / "stedge" / "__init__.py").is_file():
        print(f"perfbench: no stedge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads as wl
    from spans import SpanRecorder
    from tracing import installed, layer_metrics

    args = parse_args(sorted(wl.WORKLOADS))
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    env["numpy"] = np.__version__
    workload = wl.WORKLOADS[args.workload]

    if args.trace:
        rec, crowd_size = SpanRecorder(), {}
        with installed(rec):
            run = wl.Run.set_up(workload, args.seed, rec, crowd_size)
        episodes = wl.timed_phase(run, args.seconds, True, rec, crowd_size)
        metrics, table = layer_metrics(rec, crowd_size, wl.overhead_pct(run))
        detail = {}
    else:
        run, setup_times = wl.timed_set_ups(workload, args.seed)
        episodes = wl.timed_phase(run, args.seconds, False)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, beyond = wl.end_to_end(run, setup_times, peak)
        detail = {"window_ms_tail percentile": (workload.tail_pct, "%"),
                  "windows beyond the tail": (beyond, "count")}

    attempted = len(run.results)
    failed = sum(not r.ok for r in run.results)
    detail.update({"error_rate": (failed / attempted, "failed/attempted"),
                   "windows": (attempted, "count"),
                   "episodes": (episodes, "count")})
    detail.update(run.quality())
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    report("metrics", metrics)
    report("details", detail)
    if args.trace:
        print("per crowd size " + json.dumps(table))
        OUT_DIR.mkdir(exist_ok=True)
        rec.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl",
                  {"workload": workload.name, "seed": args.seed, **env})
    for err in run.errors:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

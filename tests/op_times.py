"""Forward and backward milliseconds of each recorded op in a training
step on crowd windows, for sizing a kernel change without touching the
benchmark.

For each crowd size, ``--windows`` windows of the benchmark's seeded
walkers (``perfbench/crowd.py``) each run one default-config loss and its
backward, after one untimed warm-up step per size.  An op's forward is
the outermost call into ``stedge.autodiff`` that recorded it (so glue
between ops, such as building the patch graphs, is not counted), and its
backward is its closure as ``backward()`` runs it.  The table gives ms per
window by op name, and each op's share of the timed steps' wall time:

    PYTHONPATH=src python tests/op_times.py --sizes 12 16 20
    PYTHONPATH=src python tests/op_times.py --sizes 20 --max-distance 2

With ``--memory`` it times nothing and traces memory instead: for one
window of each size, after the warm-up step, it prints tracemalloc's
peak over the loss and the memory held when the backward starts, then,
op by op in the order the backward runs them, the traced memory after
each op's backward and the running peak of the backward, which shows
where a step's peak forms:

    PYTHONPATH=src python tests/op_times.py --sizes 50 --memory

BLAS runs on one thread unless its thread variables are already set.
pytest does not collect this file.
"""

import argparse
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import stedge.autodiff  # noqa: E402
from stedge.autodiff import backward  # noqa: E402
from stedge.model import ModelConfig, TrajectoryForecaster  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from crowd import crowd_window  # noqa: E402

import numpy as np  # noqa: E402


class OpClock:
    """Times every recorded op while installed: ``forward`` and
    ``backward`` map an op name to seconds, ``calls`` to its count."""

    def __init__(self):
        self.forward = defaultdict(float)
        self.backward = defaultdict(float)
        self.calls = defaultdict(int)
        self._recorded = []     # op names recorded since the outermost call began
        self._depth = 0

    def _record(self, record_op):
        def recording(data, op, parents, backward_fn):
            self._recorded.append(op)
            self.calls[op] += 1

            def timed(g):
                start = time.perf_counter()
                grads = backward_fn(g)
                self.backward[op] += time.perf_counter() - start
                return grads

            return record_op(data, op, parents, timed)

        return recording

    def _outermost(self, fn):
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth, self._recorded = 1, []
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth = 0
                if self._recorded:
                    self.forward[self._recorded[-1]] += elapsed

        return timed

    def install(self):
        """Wrap ``_result`` and every autodiff function that records an op,
        in each loaded stedge module that holds it; returns the undo list."""
        autodiff = stedge.autodiff
        ops = {name: fn for name, fn in vars(autodiff).items()
               if callable(fn) and getattr(fn, "__module__", None) == autodiff.__name__
               and "_result" in getattr(getattr(fn, "__code__", None), "co_names", ())}
        wrapped = {id(fn): self._outermost(fn) for fn in ops.values()}
        undo = [(autodiff, "_result", autodiff._result)]
        autodiff._result = self._record(autodiff._result)
        for module in [m for name, m in sys.modules.items() if name.startswith("stedge")]:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    undo.append((module, name, value))
                    setattr(module, name, wrapped[id(value)])
        return undo


def memory_table(model, window) -> None:
    """Print the traced memory of one loss and backward of ``window``: the
    loss's peak, what is held when the backward starts, and after each
    op's backward the traced memory and the backward's running peak."""
    rows, record_op = [], stedge.autodiff._result

    def recording(data, op, parents, backward_fn):
        def traced(g):
            grads = backward_fn(g)
            rows.append((op, *tracemalloc.get_traced_memory()))
            return grads

        return record_op(data, op, parents, traced)

    model.params.zero_grad()
    stedge.autodiff._result = recording
    tracemalloc.start()
    try:
        loss = model.loss(window)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(loss)
    finally:
        tracemalloc.stop()
        stedge.autodiff._result = record_op
    mib = 2.0 ** 20
    print(f"N {window.n_peds}: loss peak {peak / mib:.1f} MiB, "
          f"{held / mib:.1f} MiB held when the backward starts")
    print(f"{'backward of op':24s} {'after MiB':>10s} {'peak MiB':>10s}")
    for op, after, running in rows:
        print(f"{op:24s} {after / mib:10.1f} {running / mib:10.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 16, 20])
    parser.add_argument("--windows", type=int, default=2, help="timed windows per size")
    parser.add_argument("--max-distance", type=float, default=None,
                        help="proximity wiring radius in metres (default: complete)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--memory", action="store_true",
                        help="trace memory op by op through one backward per size")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    model = TrajectoryForecaster(ModelConfig(max_distance=args.max_distance), seed=args.seed)
    windows = [crowd_window(rng, n) for n in args.sizes for _ in range(args.windows)]

    def step(window):
        model.params.zero_grad()
        backward(model.loss(window))

    for n in args.sizes:
        step(next(w for w in windows if w.n_peds == n))
    if args.memory:
        for n in args.sizes:
            memory_table(model, next(w for w in windows if w.n_peds == n))
        return
    clock = OpClock()
    undo = clock.install()
    try:
        start = time.perf_counter()
        for window in windows:
            step(window)
        wall = time.perf_counter() - start
    finally:
        for module, name, value in reversed(undo):
            setattr(module, name, value)

    count = len(windows)
    wiring = "complete" if args.max_distance is None else f"{args.max_distance:g} m"
    print(f"N {args.sizes}, {wiring} wiring, {count} windows, "
          f"{1e3 * wall / count:.1f} ms per window (loss and backward)")
    print(f"{'op':24s} {'calls':>6s} {'fwd ms':>8s} {'bwd ms':>8s} {'sum ms':>8s} {'share':>6s}")
    rows = sorted(clock.calls, key=lambda op: -(clock.forward[op] + clock.backward[op]))
    for op in rows + ["all ops"]:
        if op == "all ops":
            fwd, bwd = sum(clock.forward.values()), sum(clock.backward.values())
            calls = sum(clock.calls.values())
        else:
            fwd, bwd, calls = clock.forward[op], clock.backward[op], clock.calls[op]
        total = fwd + bwd
        print(f"{op:24s} {calls / count:6.1f} {1e3 * fwd / count:8.2f} "
              f"{1e3 * bwd / count:8.2f} {1e3 * total / count:8.2f} {total / wall:6.1%}")


if __name__ == "__main__":
    main()

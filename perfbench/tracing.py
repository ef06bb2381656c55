"""Span-recording wrappers around stedge's layers, and the per-layer
metrics computed from the spans.

``installed(rec)`` replaces, for the duration of a ``with`` block, the names
that ``stedge.model`` imports from the other modules (and
``TrajectoryForecaster.forward``) with wrappers that record one span per
call, and counts every op the autodiff engine records.  Leaving the block
restores the originals, so untraced code runs exactly the program's own
functions.  A name the program no longer has is skipped and reported.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import stedge.autodiff
import stedge.model


def _nbytes(obj) -> int:
    """Bytes of every numpy array in a structure-builder result."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x) for x in vars(obj).values())
    return 0


def _structure_bytes(args, result) -> int:
    return _nbytes(result)


def _edge_count(args, result) -> int:
    return len(args[0].edge_index)


STRUCTURE = "edgegraph.structure"
STRUCTURE_BUILD = STRUCTURE + ".boundary"   # called once per structure build

# (name in stedge.model, span name, size function)
MODEL_TARGETS = [
    ("init_features", "data.features", None),
    ("segment_patches", "stgraph.segment", None),
    ("gat_layer", "stgraph.gat", None),
    ("boundary_operator", STRUCTURE_BUILD, _structure_bytes),
    ("hodge_laplacian", STRUCTURE + ".hodge", _structure_bytes),
    ("scale_laplacian", STRUCTURE + ".scale", _structure_bytes),
    ("line_graph", STRUCTURE + ".line_graph", _structure_bytes),
    ("edge_selectors", STRUCTURE + ".selectors", _structure_bytes),
    ("hll_conv", "edgegraph.hll", _edge_count),
    ("fusion_gcn", "edgegraph.fusion", None),
    ("encoder_forward", "predictor.encoder", None),
    ("gaussian_parameters", "predictor.head_loss", None),
    ("bivariate_nll", "predictor.head_loss", None),
]


@contextmanager
def installed(rec):
    """Trace the program's layers into ``rec`` inside the block."""
    patches, missing = [], []
    for name, span, size_of in MODEL_TARGETS:
        if hasattr(stedge.model, name):
            patches.append((stedge.model, name, rec.wrap(
                span, getattr(stedge.model, name), size_of)))
        else:
            missing.append(name)
    forecaster = stedge.model.TrajectoryForecaster
    patches.append((forecaster, "forward",
                    rec.wrap("model.forward", forecaster.forward)))
    if hasattr(stedge.autodiff, "_result"):
        record_op = stedge.autodiff._result

        def counted(*args, **kwargs):
            rec.ops += 1
            return record_op(*args, **kwargs)

        patches.append((stedge.autodiff, "_result", counted))
    else:
        missing.append("autodiff._result")
    if missing:
        print(f"perfbench: not traced, absent from the program: {missing}",
              file=sys.stderr)
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


PER_WINDOW_MS = {
    "edgegraph.hll_ms": "edgegraph.hll",
    "edgegraph.fusion_ms": "edgegraph.fusion",
    "stgraph.gat_ms": "stgraph.gat",
    "stgraph.segment_ms": "stgraph.segment",
    "autodiff.backward_ms": "autodiff.backward",
    "predictor.encoder_ms": "predictor.encoder",
    "predictor.head_loss_ms": "predictor.head_loss",
    "predictor.sample_ms": "predictor.sample",
    "trainer.best_of_k_ms": "trainer.best_of_k",
    "data.features_ms": "data.features",
    "model.forward_ms": "model.forward",
}


def layer_metrics(rec, crowd_size: dict, overhead_pct: float):
    """Per-layer metrics of the timed windows (integer window labels) and
    a per-crowd-size table.  ``crowd_size`` maps each window label, set-up
    labels included, to its pedestrian count."""
    own = rec.self_times()
    windows = [s for s in rec.spans if s.name == "window" and isinstance(s.window, int)]
    n_win = max(len(windows), 1)
    total = defaultdict(float)
    count = defaultdict(int)
    size = defaultdict(int)
    forward_self = 0.0
    setup_bytes = 0
    steps = []
    by_n = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(rec.spans, own):
        group = STRUCTURE if s.name.startswith(STRUCTURE) else s.name
        n = crowd_size.get(s.window)
        if n is not None and (isinstance(s.window, int) or group == STRUCTURE):
            row = by_n[n]
            row[group + ".s"] += s.duration
            row[group + ".size"] += s.size
            row[group + ".calls"] += 1
            row["builds"] += s.name == STRUCTURE_BUILD
        if s.name == "trainer.adamw":
            steps.append(s.duration)
        if not isinstance(s.window, int):
            if group == STRUCTURE:
                setup_bytes += s.size
            continue
        total[group] += s.duration
        count[s.name] += 1
        size[group] += s.size
        if s.name == "model.forward":
            forward_self += self_s

    def ms(seconds):
        return 1e3 * seconds / n_win

    def us_per_edge(hll_s, edges):
        return 1e6 * hll_s / edges if edges else 0.0

    builds = count[STRUCTURE_BUILD]
    lookups = count["stgraph.gat"]     # one structure lookup per patch
    n_max = max((crowd_size[s.window] for s in windows), default=None)
    metrics = {name: (ms(total[span]), "ms") for name, span in PER_WINDOW_MS.items()}
    metrics.update({
        "edgegraph.hll_us_per_edge": (
            us_per_edge(total["edgegraph.hll"], size["edgegraph.hll"]), "us"),
        "edgegraph.hll_us_per_edge_nmax": (
            us_per_edge(by_n[n_max]["edgegraph.hll.s"], by_n[n_max]["edgegraph.hll.size"])
            if n_max is not None else 0.0, "us"),
        "edgegraph.edges_per_patch": (
            size["edgegraph.hll"] / max(count["edgegraph.hll"], 1), "count"),
        "edgegraph.structure_ms": (ms(total[STRUCTURE]), "ms"),
        "edgegraph.structure_builds": (builds / n_win, "count"),
        "edgegraph.structure_mb": (setup_bytes / 2**20, "MiB"),
        "model.structure_cache_hit_ratio": (
            1.0 - builds / lookups if lookups else 0.0, "ratio"),
        "autodiff.bwd_fwd_ratio": (
            total["autodiff.backward"] / total["model.forward"]
            if total["model.forward"] else 0.0, "ratio"),
        "autodiff.ops_per_window": (size["window"] / n_win, "count"),
        "trainer.adamw_ms": (1e3 * statistics.fmean(steps) if steps else 0.0, "ms"),
        "model.forward_self_ms": (ms(forward_self), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })

    table = []
    for n in sorted(by_n):
        row = by_n[n]
        n_windows = row["window.calls"]
        builds_n = row["builds"]
        table.append({
            "N": n,
            "windows": int(n_windows),
            "edges_per_patch": row["edgegraph.hll.size"] / max(row["edgegraph.hll.calls"], 1),
            "forward_ms": 1e3 * row["model.forward.s"] / max(n_windows, 1),
            "backward_ms": 1e3 * row["autodiff.backward.s"] / max(n_windows, 1),
            "hll_ms": 1e3 * row["edgegraph.hll.s"] / max(n_windows, 1),
            "structure_build_ms": 1e3 * row[STRUCTURE + ".s"] / max(builds_n, 1),
            "structure_mb": row[STRUCTURE + ".size"] / max(builds_n, 1) / 2**20,
        })
    return metrics, table

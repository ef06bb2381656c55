"""Command-line interface: train / eval / predict / graph-stats / gradcheck.

Every subcommand is reproducible from (config file, seed, input files)
alone.  Outputs are JSON (one object per line for per-window reports) or
CSV for predicted samples.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from stedge.autodiff import NonFiniteError, gradcheck
from stedge.config import BadConfigError, Config, config_help, default_config, load_config
from stedge.data import (
    DuplicateObservationError,
    EmptyFileError,
    MalformedLineError,
    build_windows,
    parse_trajectory_file,
)
from stedge.edgegraph import boundary_operator, hodge_laplacian, line_graph
from stedge.model import TrajectoryForecaster, gradcheck_parameters
from stedge.predictor import _STREAM_SAMPLING, sample_trajectories
from stedge.stgraph import (
    DisconnectedGraphError,
    build_node_adjacency,
    effective_resistance,
    patch_starts,
)
from stedge.synth import gradcheck_window
from stedge.trainer import (
    NonFiniteGradientError,
    best_of_k_per_ped,
    evaluate,
    load_checkpoint,
    train,
)

GRADCHECK_TOLERANCE = 1e-4

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_NONFINITE = 3


class MissingCheckpointError(FileNotFoundError):
    """eval/predict was asked to run without a usable checkpoint."""


def _data_files(cfg: Config, leave_out: str | None = None):
    """Resolve data.path into (train_files, held_out_files)."""
    raw = cfg["data.path"]
    if not raw:
        raise BadConfigError("data.path is not set")
    path = Path(raw)
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise EmptyFileError(f"{path}: no *.txt trajectory files")
    elif path.exists():
        files = [path]
    else:
        raise FileNotFoundError(f"data.path {path} does not exist")
    if leave_out is None:
        return files, []
    held = [f for f in files if leave_out in f.stem]
    kept = [f for f in files if leave_out not in f.stem]
    if not held:
        raise BadConfigError(f"--leave-out {leave_out!r} matches no data file")
    if not kept:
        raise BadConfigError(f"--leave-out {leave_out!r} leaves no training data")
    return kept, held


def _windows_from_files(files, cfg: Config):
    windows = []
    for f in files:
        scene = parse_trajectory_file(f)
        windows.extend(build_windows(scene, cfg["data.t_obs"], cfg["data.t_pred"]))
    return windows


def _model_with_checkpoint(cfg: Config, checkpoint) -> TrajectoryForecaster:
    model = TrajectoryForecaster(cfg.model_config(), seed=cfg["seed"])
    if checkpoint is None:
        raise MissingCheckpointError("no checkpoint given (--checkpoint)")
    path = Path(checkpoint)
    if not path.exists():
        raise MissingCheckpointError(f"checkpoint {path} does not exist")
    load_checkpoint(path, model.params)
    return model


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_files, held = _data_files(cfg, args.leave_out)
    windows = _windows_from_files(train_files, cfg)
    model = TrajectoryForecaster(cfg.model_config(), seed=cfg["seed"])
    out_dir = Path(cfg["train.out_dir"])
    records = train(model, windows, cfg.train_config(), out_dir)
    summary = {"epochs": len(records), "final": records[-1],
               "checkpoint": str(out_dir / "checkpoint.bin"),
               "metrics": str(out_dir / "metrics.jsonl")}
    if held:
        held_windows = _windows_from_files(held, cfg)
        summary["held_out"] = evaluate(model, held_windows,
                                       cfg["eval.samples"], cfg["seed"])
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    files, _ = _data_files(cfg)
    windows = _windows_from_files(files, cfg)
    if args.oracle:
        # plumbing check: a predictor that emits ground truth scores zero
        ades, fdes = [], []
        for w in windows:
            a, f = best_of_k_per_ped(w.fut[None], w.fut)
            ades.append(a)
            fdes.append(f)
        result = {"ade": float(np.concatenate(ades).mean()),
                  "fde": float(np.concatenate(fdes).mean()),
                  "n_windows": len(windows)}
    else:
        model = _model_with_checkpoint(cfg, args.checkpoint)
        result = evaluate(model, windows, cfg["eval.samples"], cfg["seed"])
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    files, _ = _data_files(cfg)
    windows = _windows_from_files(files, cfg)
    model = _model_with_checkpoint(cfg, args.checkpoint)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["window_id", "sample_id", "ped_id", "t", "x", "y"])
        for wi, window in enumerate(windows):
            track = model.predict(window)
            samples = sample_trajectories(track, cfg["eval.samples"],
                                          seed=[cfg["seed"], _STREAM_SAMPLING, wi])
            for si in range(samples.shape[0]):
                for pi, ped in enumerate(window.ped_ids):
                    for t in range(samples.shape[2]):
                        x, y = samples[si, pi, t]
                        writer.writerow([wi, si, ped, t + 1,
                                         f"{x:.6f}", f"{y:.6f}"])
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _parse_pair(raw: str):
    parts = raw.split(",")
    if len(parts) != 4:
        raise BadConfigError(f"--pair expects 'ped,t,ped,t', got {raw!r}")
    try:
        return (int(parts[0]), int(parts[1])), (int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise BadConfigError(f"--pair expects integers, got {raw!r}") from exc


def cmd_graph_stats(args) -> int:
    cfg = load_config(args.config)
    files, _ = _data_files(cfg)
    windows = _windows_from_files(files, cfg)
    pairs = [_parse_pair(p) for p in args.pair or []]
    length, stride = cfg["patch.len"], cfg["patch.stride"]
    max_dist = cfg["graph.max_distance"] or None

    for wi, window in enumerate(windows):
        n = window.n_peds
        report = {"window": wi, "start_frame": window.start_frame,
                  "n_peds": n, "ped_ids": window.ped_ids, "patches": []}
        resistance = []
        for k, start in enumerate(patch_starts(window.t_obs,
                                               cfg.model_config().patching()),
                                  start=1):
            pos = window.obs[:, start:start + length, :].reshape(-1, 2)
            adj = build_node_adjacency(n, length, pos, max_dist)
            boundary = boundary_operator(adj)
            entry = {"k": k, "start": start, "nodes": n * length,
                     "edges": boundary.n_edges}
            if args.edges:
                ladj = line_graph(boundary.edge_index)
                degrees = ladj.sum(axis=1).astype(int)
                hist = {}
                for d in degrees:
                    hist[str(d)] = hist.get(str(d), 0) + 1
                l1 = hodge_laplacian(boundary)
                spectrum = np.linalg.eigvalsh(l1) if boundary.n_edges else []
                entry["degree_histogram"] = hist
                entry["l1_spectrum"] = [round(float(v), 9) for v in spectrum]
            report["patches"].append(entry)
            for (ped_a, t_a), (ped_b, t_b) in pairs:
                if ped_a not in window.ped_ids or ped_b not in window.ped_ids:
                    continue
                if not (start <= t_a < start + length
                        and start <= t_b < start + length):
                    continue
                ia = window.ped_ids.index(ped_a) * length + (t_a - start)
                ib = window.ped_ids.index(ped_b) * length + (t_b - start)
                try:
                    value = effective_resistance(adj, ia, ib)
                except DisconnectedGraphError:
                    value = None
                resistance.append({"pair": [[ped_a, t_a], [ped_b, t_b]],
                                   "k": k, "resistance": value})
        if pairs:
            report["resistance"] = resistance
        print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    if cfg["data.path"]:
        files, _ = _data_files(cfg)
        windows = _windows_from_files(files, cfg)
        if not windows:
            raise EmptyFileError("no usable window for gradcheck")
        window = windows[0]
    else:
        window = gradcheck_window(cfg["data.t_obs"], cfg["data.t_pred"])
    model_cfg = cfg.model_config()
    model = TrajectoryForecaster(
        model_cfg, params=gradcheck_parameters(model_cfg, cfg["seed"]))
    err = gradcheck(lambda: model.loss(window), model.params.tensors(),
                    eps=args.eps)
    print(json.dumps({"max_rel_err": err,
                      "n_parameters": model.params.n_values(),
                      "tolerance": GRADCHECK_TOLERANCE}, sort_keys=True))
    return EXIT_OK if err <= GRADCHECK_TOLERANCE else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stedge",
        description="Edge-enhanced spatial-temporal graph trajectory forecasting.",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file path")
        p.set_defaults(fn=fn)
        return p

    p = add("train", cmd_train, "train and write checkpoint + metrics log")
    p.add_argument("--leave-out", default=None, metavar="SUBSET",
                   help="hold out data files whose stem contains SUBSET")

    p = add("eval", cmd_eval, "best-of-K ADE/FDE on the configured data")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="score a predictor that emits ground truth (plumbing check)")

    p = add("predict", cmd_predict, "emit sampled trajectories as CSV")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = add("graph-stats", cmd_graph_stats,
            "per-window patch-graph report as JSON lines")
    p.add_argument("--edges", action="store_true",
                   help="add line-graph degree histogram and L1 spectrum")
    p.add_argument("--pair", action="append", metavar="PED,T,PED,T",
                   help="effective resistance between two (ped, time) nodes")

    p = add("gradcheck", cmd_gradcheck,
            "finite-difference check of the full model gradient")
    p.add_argument("--eps", type=float, default=1e-5)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NonFiniteGradientError as exc:
        print(f"error: training aborted: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except NonFiniteError as exc:
        print(f"error: non-finite forward: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except (MissingCheckpointError, FileNotFoundError, MalformedLineError,
            DuplicateObservationError, EmptyFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()

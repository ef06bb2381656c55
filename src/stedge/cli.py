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

from stedge.autodiff import GRADCHECK_EPS, NonFiniteError, gradcheck
from stedge.config import BadConfigError, Config, config_help, load_config
from stedge.data import EmptyFileError, build_windows, parse_trajectory_file
from stedge.edgegraph import hodge_spectrum, line_graph_degrees
from stedge.model import TrajectoryForecaster, gradcheck_parameters
from stedge.predictor import sample_window
from stedge.stgraph import dense_adjacency, effective_resistances, patch_graphs
from stedge.synth import gradcheck_window
from stedge.trainer import NonFiniteGradientError, evaluate, load_checkpoint, train

GRADCHECK_TOLERANCE = 1e-4

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2
EXIT_NONFINITE = 3


class MissingCheckpointError(FileNotFoundError):
    """eval/predict was asked to run without a usable checkpoint."""


def _data_files(cfg: Config, leave_out: str | None = None):
    """Resolve data.path into (train_files, held_out_files)."""
    if not cfg.data_path:
        raise BadConfigError("data.path is not set")
    path = Path(cfg.data_path)
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
    t_obs, t_pred = cfg.model.t_obs, cfg.model.t_pred
    windows = []
    for f in files:
        windows.extend(build_windows(parse_trajectory_file(f), t_obs, t_pred))
    if not windows:
        raise EmptyFileError(f"{', '.join(map(str, files))}: no window of "
                             f"t_obs + t_pred = {t_obs + t_pred} samples")
    return windows


def _model_with_checkpoint(cfg: Config, checkpoint) -> TrajectoryForecaster:
    # checked before the model draws its parameters, which at a large
    # model.dim can take more memory than the error message
    if checkpoint is None:
        raise MissingCheckpointError("no checkpoint given (--checkpoint)")
    path = Path(checkpoint)
    if not path.exists():
        raise MissingCheckpointError(f"checkpoint {path} does not exist")
    model = TrajectoryForecaster(cfg.model, seed=cfg.train.seed)
    load_checkpoint(path, model.params)
    return model


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_files, held = _data_files(cfg, args.leave_out)
    windows = _windows_from_files(train_files, cfg)
    held_windows = _windows_from_files(held, cfg) if held else []
    model = TrajectoryForecaster(cfg.model, seed=cfg.train.seed)
    out_dir = Path(cfg.out_dir)
    records = train(model, windows, cfg.train, out_dir)
    summary = {"epochs": len(records), "final": records[-1],
               "checkpoint": str(out_dir / "checkpoint.bin"),
               "metrics": str(out_dir / "metrics.jsonl")}
    if held:
        summary["held_out"] = evaluate(model, held_windows,
                                       cfg.train.eval_samples, cfg.train.seed)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    files, _ = _data_files(cfg)
    windows = _windows_from_files(files, cfg)
    model = _model_with_checkpoint(cfg, args.checkpoint)
    result = evaluate(model, windows, cfg.train.eval_samples, cfg.train.seed)
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
            samples = sample_window(track, cfg.train.eval_samples,
                                    cfg.train.seed, wi)
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


def _parse_pair(raw: str, t_obs: int):
    """``ped,t,ped,t`` as ((ped, t), (ped, t)); each time slot must be an
    observed one, in [0, t_obs), or it lies in no patch."""
    parts = raw.split(",")
    if len(parts) != 4:
        raise BadConfigError(f"--pair expects 'ped,t,ped,t', got {raw!r}")
    try:
        pair = (int(parts[0]), int(parts[1])), (int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise BadConfigError(f"--pair expects integers, got {raw!r}") from exc
    if not all(0 <= t < t_obs for _, t in pair):
        raise BadConfigError(f"--pair {raw!r}: time slots must lie in [0, {t_obs}), "
                             f"the observed slots of data.t_obs = {t_obs}")
    return pair


def cmd_graph_stats(args) -> int:
    cfg = load_config(args.config)
    pairs = [_parse_pair(p, cfg.model.t_obs) for p in args.pair or []]
    files, _ = _data_files(cfg)
    windows = _windows_from_files(files, cfg)
    held = {ped for window in windows for ped in window.ped_ids}
    for (ped_a, _), (ped_b, _) in pairs:
        for ped in (ped_a, ped_b):
            if ped not in held:
                raise BadConfigError(f"--pair names pedestrian {ped}, whom no window holds")
    length, stride = cfg.model.patch_len, cfg.model.patch_stride

    for wi, window in enumerate(windows):
        n = window.n_peds
        report = {"window": wi, "start_frame": window.start_frame,
                  "n_peds": n, "ped_ids": window.ped_ids, "patches": []}
        resistance = []
        patches = patch_graphs(window.obs, length, stride, cfg.model.max_distance)
        for k, start in enumerate(patches.starts, start=1):
            graph = patches.patch(k - 1)
            (adj,) = dense_adjacency(graph)
            entry = {"k": k, "start": start, "nodes": graph.nodes,
                     "edges": len(graph.edge_index)}
            if args.edges:
                degree, count = np.unique(line_graph_degrees(graph), return_counts=True)
                entry["degree_histogram"] = dict(zip(map(str, degree), count.tolist()))
                entry["l1_spectrum"] = [round(float(v), 9) for v in hodge_spectrum(graph)]
            report["patches"].append(entry)
            covered, nodes = [], []
            for (ped_a, t_a), (ped_b, t_b) in pairs:
                if ped_a not in window.ped_ids or ped_b not in window.ped_ids:
                    continue
                if not (start <= t_a < start + length
                        and start <= t_b < start + length):
                    continue
                covered.append([[ped_a, t_a], [ped_b, t_b]])
                nodes.append((window.ped_ids.index(ped_a) * length + (t_a - start),
                              window.ped_ids.index(ped_b) * length + (t_b - start)))
            for pair, value in zip(covered, effective_resistances(adj, nodes)):
                resistance.append({"pair": pair, "k": k, "resistance": value})
        if pairs:
            report["resistance"] = resistance
        print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    if cfg.data_path:
        files, _ = _data_files(cfg)
        window = _windows_from_files(files, cfg)[0]
    else:
        window = gradcheck_window(cfg.model.t_obs, cfg.model.t_pred)
    model = TrajectoryForecaster(
        cfg.model, params=gradcheck_parameters(cfg.model, cfg.train.seed))
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
    p.add_argument("--eps", type=float, default=GRADCHECK_EPS)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()

"""Optimization loop, displacement metrics, checkpoints and metrics log.

Training is deterministic given the seed: batch order, augmentation angles
and evaluation sampling all flow from named sub-streams of the single master
seed.  A batch is a set of windows whose gradients are averaged before one
decoupled-weight-decay adaptive-moment step; windows with different
pedestrian counts simply accumulate gradients across separate forward
passes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stedge.autodiff import ParameterStore, ShapeMismatchError, backward
from stedge.data import Window
from stedge.model import TrajectoryForecaster
from stedge.predictor import sample_window

_STREAM_BATCH = 1
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8   # AdamW moment decays and floor

AUGMENT_MODES = ("off", "rotate")

CHECKPOINT_MAGIC = b"STEDGECKPT"
CHECKPOINT_VERSION = 1


class NonFiniteGradientError(ArithmeticError):
    """A gradient went NaN/Inf before the optimizer step."""


class CheckpointFormatError(ValueError):
    """Checkpoint file is malformed or does not match the parameter store."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    base_lr: float = 1e-3
    lr_halve_every: int = 50
    weight_decay: float = 1e-4
    seed: int = 0
    augment: str = "off"        # one of AUGMENT_MODES
    eval_samples: int = 20

    def __post_init__(self):
        for name, minimum in (("epochs", 1), ("batch_size", 1),
                              ("lr_halve_every", 1), ("eval_samples", 1),
                              ("seed", 0)):
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}, "
                                 f"got {getattr(self, name)}")
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, "
                             f"got {self.weight_decay}")
        if self.augment not in AUGMENT_MODES:
            raise ValueError(f"unknown augment mode {self.augment!r}; "
                             f"expected one of {AUGMENT_MODES}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """base_lr halves every ``lr_halve_every`` epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return cfg.base_lr * 0.5 ** (epoch // cfg.lr_halve_every)


class AdamW:
    """Bias-corrected adaptive moments with decay applied to the weights;
    each step is scaled by the parameter's ``ParameterStore.step_scale``."""

    def __init__(self, params: ParameterStore,
                 weight_decay: float = TrainConfig.weight_decay):
        self.params = params
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float) -> None:
        for name, p in self.params.items():
            g = p.grad
            if g is not None and not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient for {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1 ** t
        bc2 = 1.0 - _BETA2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self._m[name]
            v = self._v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
            step = lr * self.params.step_scale(name)
            p.data -= step * update + lr * self.weight_decay * p.data


# -- metrics -------------------------------------------------------------------


def ade_fde(pred, truth) -> tuple[float, float]:
    """Mean per-step and final-step Euclidean displacement errors."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeMismatchError(f"pred {pred.shape} != truth {truth.shape}")
    err = np.linalg.norm(pred - truth, axis=-1)
    return float(err.mean()), float(err[..., -1].mean())


def best_of_k_per_ped(samples, truth) -> tuple[np.ndarray, np.ndarray]:
    """Select, per pedestrian, the sample with minimal ADE; return its
    ADE and FDE for every pedestrian.  ``samples`` is (K,) + the (N, T, 2)
    ``truth`` shape."""
    samples = np.asarray(samples, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim != 3 or samples.shape[1:] != truth.shape:
        raise ShapeMismatchError(f"samples {samples.shape} != (K,) + truth "
                                 f"{truth.shape}, truth (N, T_pred, 2)")
    err = np.linalg.norm(samples - truth[None], axis=-1)   # (K, N, T)
    per_ped_ade = err.mean(axis=2)                         # (K, N)
    best = per_ped_ade.argmin(axis=0)
    peds = np.arange(truth.shape[0])
    return per_ped_ade[best, peds], err[best, peds, -1]


def best_of_k_eval(samples, truth) -> tuple[float, float]:
    ade, fde = best_of_k_per_ped(samples, truth)
    return float(ade.mean()), float(fde.mean())


def evaluate(model: TrajectoryForecaster, windows: list[Window],
             n_samples: int = TrainConfig.eval_samples,
             seed: int = TrainConfig.seed) -> dict:
    """Best-of-K metrics pooled over every pedestrian of every window."""
    ades, fdes = [], []
    for wi, window in enumerate(windows):
        track = model.predict(window)
        samples = sample_window(track, n_samples, seed, wi)
        a, f = best_of_k_per_ped(samples, window.fut)
        ades.append(a)
        fdes.append(f)
    ade = float(np.concatenate(ades).mean()) if ades else math.nan
    fde = float(np.concatenate(fdes).mean()) if fdes else math.nan
    return {"ade": ade, "fde": fde, "n_windows": len(windows)}


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, params: ParameterStore) -> None:
    """Versioned flat file: magic, version, then (name, shape, values)
    triples in declaration order, all little-endian, values float64."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name, p in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(p.data.astype("<f8").tobytes())
    os.replace(tmp, path)


def load_checkpoint(path, params: ParameterStore | None = None) -> dict:
    """Read a checkpoint; when a store is given, verify names/shapes match
    declaration order and copy values in.  A file cut short, with a name
    that is not UTF-8 or with trailing bytes raises ``CheckpointFormatError``."""
    buf = Path(path).read_bytes()
    if not buf.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: bad magic string")
    pos = len(CHECKPOINT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise CheckpointFormatError(f"{path}: truncated at byte {pos}")
        pos += n
        return buf[pos - n:pos]

    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    values = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"{path}: parameter name: {exc}") from exc
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        raw = take(8 * math.prod(shape))
        values[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if pos != len(buf):
        raise CheckpointFormatError(f"{path}: {len(buf) - pos} trailing bytes")
    if params is not None:
        if list(values) != params.names():
            raise CheckpointFormatError(
                f"{path}: parameter names do not match the model")
        for name, arr in values.items():
            p = params[name]
            if arr.shape != p.data.shape:
                raise CheckpointFormatError(
                    f"{path}: shape {arr.shape} != {p.data.shape} for {name!r}")
            p.data[...] = arr
    return values


# -- training loop -------------------------------------------------------------


def rotate_window(window: Window, angle: float) -> Window:
    """Rigidly rotate a window about the centroid of its observed positions."""
    c = window.obs.reshape(-1, 2).mean(axis=0)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    obs = (window.obs - c) @ rot.T + c
    fut = (window.fut - c) @ rot.T + c
    return Window(obs=obs, fut=fut, ped_ids=list(window.ped_ids),
                  origin=obs[:, -1].copy(), start_frame=window.start_frame)


def _batches(order: np.ndarray, size: int):
    for i in range(0, len(order), size):
        yield order[i:i + size]


def train(model: TrajectoryForecaster, windows: list[Window], cfg: TrainConfig,
          out_dir) -> list[dict]:
    """Run the full loop; returns the metrics records it also writes to
    ``out_dir/metrics.jsonl`` (one JSON object per line).

    ``out_dir/checkpoint.bin`` is rewritten after every completed epoch, so
    an abort on a non-finite gradient retains the last good epoch's weights.
    """
    if not windows:
        raise ValueError("training needs at least one window")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.bin"

    opt = AdamW(model.params, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng([cfg.seed, _STREAM_BATCH])
    records = []
    with open(metrics_path, "w", encoding="utf-8") as log:
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            order = rng.permutation(len(windows))
            losses = []
            for batch in _batches(order, cfg.batch_size):
                model.params.zero_grad()
                batch_loss = 0.0
                for wi in batch:
                    window = windows[int(wi)]
                    if cfg.augment == "rotate":
                        window = rotate_window(window,
                                               rng.uniform(0.0, 2.0 * math.pi))
                    loss = model.loss(window)
                    backward(loss)
                    batch_loss += loss.item()
                scale = 1.0 / len(batch)
                for p in model.params.tensors():
                    if p.grad is not None:
                        p.grad *= scale
                opt.step(lr)
                losses.append(batch_loss * scale)
            metrics = evaluate(model, windows, cfg.eval_samples, cfg.seed)
            record = {"epoch": epoch, "lr": lr,
                      "loss": float(np.mean(losses)),
                      "ade": metrics["ade"], "fde": metrics["fde"]}
            records.append(record)
            log.write(json.dumps(record, sort_keys=True) + "\n")
            log.flush()
            save_checkpoint(ckpt_path, model.params)
    return records

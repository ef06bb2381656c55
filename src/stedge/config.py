"""Flat dotted-key configuration: one ``key = value`` per line.

Unknown keys are rejected by name, every key has a documented default, and
all randomness in a run flows from the single ``seed`` key through named
sub-streams (init / batching / sampling).  A key names a field of
``ModelConfig``, ``TrainConfig`` or ``Config``, which declares its default
and type; a file is checked by building both settings classes once, and a
parsed ``Config`` holds them, frozen, with the two paths the command line
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from stedge.model import ModelConfig
from stedge.trainer import TrainConfig


class BadConfigError(ValueError):
    """Unknown or repeated key, or a value that does not parse; names the key."""


@dataclass(frozen=True)
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data_path: str = ""
    out_dir: str = "runs"


# key -> (owner, field, help line)
CONFIG_KEYS: dict[str, tuple] = {
    "data.path": (Config, "data_path", "trajectory file, or directory of *.txt files"),
    "data.t_obs": (ModelConfig, "t_obs", "observed samples per window"),
    "data.t_pred": (ModelConfig, "t_pred", "predicted samples per window"),
    "patch.len": (ModelConfig, "patch_len", "temporal patch length L"),
    "patch.stride": (ModelConfig, "patch_stride", "temporal patch stride S"),
    "graph.max_distance": (ModelConfig, "max_distance",
                           "cross-pedestrian link range; 0 = complete graph"),
    "model.dim": (ModelConfig, "model_dim", "node/edge embedding width"),
    "encoder.dim": (ModelConfig, "encoder_dim", "encoder hidden width"),
    "encoder.heads": (ModelConfig, "encoder_heads", "attention heads"),
    "encoder.layers": (ModelConfig, "encoder_layers", "encoder layers"),
    "hll.order": (ModelConfig, "hll_order", "Laguerre polynomial order J"),
    "fusion.gate": (ModelConfig, "fusion_gate",
                    "edge-gate mode; 'zero' severs the edge branch"),
    "train.epochs": (TrainConfig, "epochs", "training epochs"),
    "train.batch_size": (TrainConfig, "batch_size", "windows per optimizer step"),
    "train.base_lr": (TrainConfig, "base_lr", "initial learning rate"),
    "train.lr_halve_every": (TrainConfig, "lr_halve_every",
                             "epochs between halvings"),
    "train.weight_decay": (TrainConfig, "weight_decay", "decoupled weight decay"),
    "train.augment": (TrainConfig, "augment", "training-window augmentation"),
    "train.out_dir": (Config, "out_dir", "checkpoint / metrics directory"),
    "eval.samples": (TrainConfig, "eval_samples", "samples per window at evaluation"),
    "seed": (TrainConfig, "seed", "master seed for init/batching/sampling"),
}

_DEFAULTS = {key: owner.__dataclass_fields__[name].default
             for key, (owner, name, _) in CONFIG_KEYS.items()}


def _build(owner, values: dict, **built):
    return owner(**built, **{name: values[key]
                             for key, (o, name, _) in CONFIG_KEYS.items()
                             if o is owner})


def parse_config_text(text: str, source: str = "<config>") -> Config:
    values = dict(_DEFAULTS)
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigError(f"{source}:{lineno}: expected 'key = value', "
                                 f"got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in CONFIG_KEYS:
            raise BadConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise BadConfigError(f"{source}:{lineno}: {key!r} is set again; "
                                 f"line {lines[key]} already sets it")
        try:
            values[key] = type(_DEFAULTS[key])(raw_value)
        except ValueError as exc:
            raise BadConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    built = {}
    for name, owner in (("model", ModelConfig), ("train", TrainConfig)):
        try:
            built[name] = _build(owner, values)
        except ValueError as exc:
            raise _blame(exc, owner, values, lines, source) from exc
    return _build(Config, values, **built)


def _blame(exc: ValueError, owner, values: dict, lines: dict,
           source: str) -> BadConfigError:
    """Name the line and key(s) behind ``owner``'s error: the fewest keys
    set in the file that raise the same error with every other setting at
    its default, one bad value or a conflicting pair."""
    own = sorted((key for key in lines if CONFIG_KEYS[key][0] is owner),
                 key=lines.get)
    for size in (1, 2):
        for keys in combinations(own, size):
            try:
                owner(**{CONFIG_KEYS[key][1]: values[key] for key in keys})
            except ValueError as again:
                if str(again) == str(exc):
                    what = "bad value" if size == 1 else "conflicting values"
                    names = " and ".join(map(repr, keys))
                    return BadConfigError(f"{source}:{lines[keys[-1]]}: "
                                          f"{what} for {names}: {exc}")
    return BadConfigError(f"{source}: {exc}")


def load_config(path) -> Config:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")   # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
        raise BadConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def config_help() -> str:
    lines = ["config keys (key = value per line, '#' comments):"]
    for key, (_, _, doc) in CONFIG_KEYS.items():
        lines.append(f"  {key:<28} default {_DEFAULTS[key]!r:<12} {doc}")
    return "\n".join(lines)

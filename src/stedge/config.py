"""Flat dotted-key configuration: one ``key = value`` per line.

Unknown keys are rejected by name, every key has a documented default, and
all randomness in a run flows from the single ``seed`` key through named
sub-streams (init / batching / sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from stedge.data import ENDPOINT_MODES
from stedge.model import FUSION_GATES, ModelConfig
from stedge.trainer import AUGMENT_MODES, TrainConfig


class BadConfigError(ValueError):
    """Unknown key, or a value that does not parse; the message names the key."""


def _int_min(minimum):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value
    return parse


def _float_min(minimum, exclusive=False):
    def parse(raw: str) -> float:
        value = float(raw)
        if value < minimum or (exclusive and value == minimum):
            raise ValueError(f"must be {'>' if exclusive else '>='} {minimum}")
        return value
    return parse


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw
    return parse


# key -> (parser, default, help line)
CONFIG_KEYS: dict[str, tuple] = {
    "data.path": (str, "", "trajectory file, or directory of *.txt files"),
    "data.t_obs": (_int_min(2), 8, "observed samples per window"),
    "data.t_pred": (_int_min(1), 12, "predicted samples per window"),
    "patch.len": (_int_min(1), 3, "temporal patch length L"),
    "patch.stride": (_int_min(1), 1, "temporal patch stride S"),
    "graph.max_distance": (_float_min(0.0), 0.0,
                           "cross-pedestrian link range; 0 = complete graph"),
    "model.dim": (_int_min(1), 128, "node/edge embedding width"),
    "encoder.dim": (_int_min(1), 256, "encoder hidden width"),
    "encoder.heads": (_int_min(1), 4, "attention heads"),
    "encoder.layers": (_int_min(1), 2, "encoder layers"),
    "hll.order": (_int_min(1), 3, "Laguerre polynomial order J"),
    "fusion.gate": (_choice(*FUSION_GATES), "vector",
                    "edge-gate mode; 'zero' severs the edge branch"),
    "preprocess.endpoint_mode": (_choice(*ENDPOINT_MODES), "off",
                                 "endpoint-subtraction preprocessing"),
    "train.epochs": (_int_min(1), 100, "training epochs"),
    "train.batch_size": (_int_min(1), 128, "windows per optimizer step"),
    "train.base_lr": (_float_min(0.0, exclusive=True), 0.001,
                      "initial learning rate"),
    "train.lr_halve_every": (_int_min(1), 50, "epochs between halvings"),
    "train.weight_decay": (_float_min(0.0), 0.0001, "decoupled weight decay"),
    "train.augment": (_choice(*AUGMENT_MODES), "off",
                      "training-window augmentation"),
    "train.out_dir": (str, "runs", "checkpoint / metrics directory"),
    "eval.samples": (_int_min(1), 20, "samples per window at evaluation"),
    "seed": (_int_min(0), 0, "master seed for init/batching/sampling"),
}


@dataclass
class Config:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def model_config(self) -> ModelConfig:
        max_dist = self["graph.max_distance"]
        return ModelConfig(
            t_obs=self["data.t_obs"], t_pred=self["data.t_pred"],
            patch_len=self["patch.len"], patch_stride=self["patch.stride"],
            model_dim=self["model.dim"], encoder_dim=self["encoder.dim"],
            encoder_heads=self["encoder.heads"],
            encoder_layers=self["encoder.layers"],
            hll_order=self["hll.order"],
            fusion_gate=self["fusion.gate"],
            endpoint_mode=self["preprocess.endpoint_mode"],
            max_distance=max_dist if max_dist > 0 else None)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self["train.epochs"], batch_size=self["train.batch_size"],
            base_lr=self["train.base_lr"],
            lr_halve_every=self["train.lr_halve_every"],
            weight_decay=self["train.weight_decay"], seed=self["seed"],
            augment=self["train.augment"], eval_samples=self["eval.samples"])


def default_config() -> Config:
    return Config({key: default for key, (_, default, _) in CONFIG_KEYS.items()})


def parse_config_text(text: str, source: str = "<config>") -> Config:
    values = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
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
        parser = CONFIG_KEYS[key][0]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise BadConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    _cross_validate(values)
    return Config(values)


def _cross_validate(values: dict) -> None:
    if values["patch.len"] > values["data.t_obs"]:
        raise BadConfigError("patch.len must not exceed data.t_obs")
    if values["encoder.dim"] % values["encoder.heads"] != 0:
        raise BadConfigError("encoder.dim must be divisible by encoder.heads")


def load_config(path) -> Config:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BadConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def config_help() -> str:
    lines = ["config keys (key = value per line, '#' comments):"]
    for key, (_, default, doc) in CONFIG_KEYS.items():
        lines.append(f"  {key:<28} default {default!r:<12} {doc}")
    return "\n".join(lines)

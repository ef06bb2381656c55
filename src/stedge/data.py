"""Trajectory file parsing, observation/prediction windowing, and motion
feature initialization.

Input files are plain text, one observation per line: ``frame_id ped_id x y``
(whitespace separated, ``#`` starts a comment).  Windows are fixed-length
slices of 8 observed + 12 future samples by default; features are per-step
velocities, their norms, and movement angles of the observed positions only,
each embedded by its own single-layer perceptron and concatenated.  No
feature reads a window's future.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stedge.autodiff import ParameterStore, Tensor, concatenate

DEFAULT_T_OBS, DEFAULT_T_PRED = 8, 12   # window horizons; ModelConfig's defaults

# two points within +-B have dx^2 + dy^2 <= 8 B^2, the float64 maximum, so
# no squared distance between them overflows
_COORD_LIMIT = math.sqrt(sys.float_info.max / 8.0)


class MalformedLineError(ValueError):
    """A trajectory file line does not parse as ``frame_id ped_id x y``."""


class DuplicateObservationError(ValueError):
    """The same (frame_id, ped_id) pair appears twice."""


class EmptyFileError(ValueError):
    """The trajectory data holds no observations, or no whole window."""


@dataclass(frozen=True)
class TrajectoryScene:
    """All observations of one scene, sorted by (frame_id, ped_id).

    No records, a coordinate the parser rejects, a repeated (frame_id,
    ped_id) pair or a ``frame_stride`` below 1 raises ``ValueError``.
    """

    records: tuple[tuple[int, int, float, float], ...]
    frame_stride: int

    def __post_init__(self):
        if not self.records:
            raise EmptyFileError("no observations")
        seen = set()
        for frame, ped, x, y in self.records:
            fault = _coordinate_fault(x, y)
            if fault:
                raise ValueError(f"frame {frame}, pedestrian {ped}: {fault}")
            key = (frame, ped)
            if key in seen:
                raise DuplicateObservationError(
                    f"duplicate observation for frame {frame}, pedestrian {ped}")
            seen.add(key)
        if self.frame_stride < 1:
            raise ValueError(f"frame_stride must be >= 1, got {self.frame_stride}")

    def ped_ids(self) -> list[int]:
        return sorted({r[1] for r in self.records})

    def frames(self) -> list[int]:
        return sorted({r[0] for r in self.records})

    def positions_by_ped(self) -> dict[int, dict[int, tuple[float, float]]]:
        out: dict[int, dict[int, tuple[float, float]]] = {}
        for frame, ped, x, y in self.records:
            out.setdefault(ped, {})[frame] = (x, y)
        return out


@dataclass
class Window:
    """One observation/prediction slice.

    ``obs`` is (N, T_obs, 2) absolute positions, ``fut`` is (N, T_pred, 2),
    and ``origin`` is each pedestrian's last observed position.  No
    pedestrian, a bad shape, or a coordinate the parser rejects raises
    ``ValueError``.
    """

    obs: np.ndarray
    fut: np.ndarray
    ped_ids: list[int]
    origin: np.ndarray
    start_frame: int = 0

    def __post_init__(self):
        self.obs = np.asarray(self.obs, dtype=np.float64)
        self.fut = np.asarray(self.fut, dtype=np.float64)
        self.origin = np.asarray(self.origin, dtype=np.float64)
        n = len(self.ped_ids)
        if n == 0:
            raise ValueError("Window.ped_ids is empty: a window needs at least "
                             "one pedestrian")
        for name, ndim, dims in (("obs", 3, "N, T_obs, 2"), ("fut", 3, "N, T_pred, 2"),
                                 ("origin", 2, "N, 2")):
            value = getattr(self, name)
            if value.ndim != ndim or value.shape[:1] + value.shape[-1:] != (n, 2):
                raise ValueError(f"Window.{name} must be ({dims}) with N = {n} "
                                 f"ped_ids, got shape {value.shape}")
            # max propagates NaN, so the largest magnitude carries any fault
            fault = _coordinate_fault(0.0, float(np.abs(value).max(initial=0.0)))
            if fault:
                raise ValueError(f"Window.{name}: {fault}")

    @property
    def n_peds(self) -> int:
        return self.obs.shape[0]

    @property
    def t_obs(self) -> int:
        return self.obs.shape[1]

    @property
    def t_pred(self) -> int:
        return self.fut.shape[1]


def _parse_id(token: str) -> int:
    value = float(token)
    if not value.is_integer():
        raise ValueError(f"{token!r} is not an integer id")
    return int(value)


def _coordinate_fault(x: float, y: float) -> str | None:
    """Why (x, y) cannot be a position; None if it can."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return "non-finite coordinate"
    if max(abs(x), abs(y)) > _COORD_LIMIT:
        return (f"coordinate beyond +-{_COORD_LIMIT:.3g}; squared distances "
                f"would overflow")
    return None


def parse_trajectory_file(path) -> TrajectoryScene:
    records = []
    text = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")   # a UTF-8 byte-order mark
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError as exc:
            raise MalformedLineError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedLineError(
                f"{path}:{lineno}: expected 'frame_id ped_id x y', got {line!r}")
        try:
            record = (_parse_id(parts[0]), _parse_id(parts[1]),
                      float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise MalformedLineError(f"{path}:{lineno}: {exc}") from exc
        fault = _coordinate_fault(record[2], record[3])
        if fault:
            raise MalformedLineError(f"{path}:{lineno}: {fault} in {line!r}")
        records.append(record)
    if not records:
        raise EmptyFileError(f"{path}: no observations")
    return scene_from_records(records)


def scene_from_records(records) -> TrajectoryScene:
    """Sort and stride-infer a record list into a scene, which checks it."""
    ordered = tuple(sorted(records, key=lambda r: (r[0], r[1])))

    # stride = GCD of per-pedestrian frame gaps; single-sample peds contribute none
    by_ped: dict[int, list[int]] = {}
    for frame, ped, _, _ in ordered:
        by_ped.setdefault(ped, []).append(frame)
    stride = 0
    for frames in by_ped.values():
        for a, b in zip(frames, frames[1:]):
            stride = math.gcd(stride, b - a)
    return TrajectoryScene(records=ordered, frame_stride=stride or 1)


def build_windows(scene: TrajectoryScene, t_obs: int = DEFAULT_T_OBS,
                  t_pred: int = DEFAULT_T_PRED) -> list[Window]:
    """Cut every valid fixed-length window from a scene.

    A window starts at an observed frame and spans t_obs + t_pred samples
    spaced ``frame_stride`` apart; pedestrians observed at every one of those
    frames are included, others are excluded from that window.  Start frames
    are visited in order.
    """
    if t_obs < 2:
        raise ValueError("t_obs must be >= 2")
    if t_pred < 1:
        raise ValueError("t_pred must be >= 1")
    span = t_obs + t_pred
    stride = scene.frame_stride
    by_ped = scene.positions_by_ped()

    windows = []
    for start in scene.frames():
        needed = [start + i * stride for i in range(span)]
        peds = [p for p in sorted(by_ped) if all(f in by_ped[p] for f in needed)]
        if not peds:
            continue
        track = np.array([[by_ped[p][f] for f in needed] for p in peds])
        obs, fut = track[:, :t_obs], track[:, t_obs:]
        windows.append(Window(obs=obs, fut=fut, ped_ids=peds,
                              origin=obs[:, -1].copy(), start_frame=start))
    return windows


def motion_features(obs: np.ndarray):
    """Per-step velocities, norms and angles of the (N, T_obs, 2) observed
    positions, as plain arrays.

    The first observed step has zero velocity so the sequence keeps T_obs
    entries.
    """
    vel = np.zeros_like(obs)
    vel[:, 1:] = obs[:, 1:] - obs[:, :-1]
    norm = np.linalg.norm(vel, axis=-1)
    angle = np.arctan2(vel[..., 1], vel[..., 0])
    angle[norm == 0.0] = 0.0  # atan2(0, 0) := 0 so stationary steps stay clean
    return vel, norm, angle


def init_features(obs: np.ndarray, params: ParameterStore) -> Tensor:
    """Embed velocity / norm / angle streams and concatenate to (N, T_obs, 3E)."""
    vel, norm, angle = motion_features(obs)
    parts = [
        Tensor(vel) @ params["feat.w_v"],
        Tensor(norm[..., None]) @ params["feat.w_norm"],
        Tensor(angle[..., None]) @ params["feat.w_angle"],
    ]
    return concatenate(parts, axis=-1)


def future_displacements(window: Window) -> np.ndarray:
    """Per-step relative displacement targets, (N, T_pred, 2)."""
    path = np.concatenate([window.origin[:, None, :], window.fut], axis=1)
    return np.diff(path, axis=1)

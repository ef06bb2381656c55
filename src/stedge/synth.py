"""Deterministic synthetic trajectory scenes for demos, fixtures and the
overfit-capability checks.

Generators are closed-form or seeded, so fixtures are bit-stable across
runs and platforms.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from stedge.data import (DEFAULT_T_OBS, DEFAULT_T_PRED, Window, build_windows,
                         scene_from_records)

JITTER_SEED = 2024
OVERFIT_JITTER = 0.01   # position noise of the overfit scenes, by default


def linear_records(walkers, n_frames: int, frame_stride: int = 1,
                   start_frame: int = 0, jitter: float = 0.0,
                   rng: np.random.Generator | None = None):
    """Constant-velocity records; ``walkers`` is [(ped_id, (x0, y0), (vx, vy))].

    ``jitter`` adds seeded uniform position noise.  On fixtures meant for
    likelihood training it keeps a floor under the per-step variance, so the
    loss cannot sharpen without bound while a run overfits.
    """
    if jitter and rng is None:
        rng = np.random.default_rng(JITTER_SEED)
    records = []
    for ped_id, (x0, y0), (vx, vy) in walkers:
        for i in range(n_frames):
            frame = start_frame + i * frame_stride
            x, y = x0 + vx * i, y0 + vy * i
            if jitter:
                jx, jy = rng.uniform(-jitter, jitter, 2)
                x, y = x + jx, y + jy
            records.append((frame, ped_id, x, y))
    return records


def write_trajectory_file(path, records) -> Path:
    path = Path(path)
    lines = [f"{frame} {ped} {x:.6f} {y:.6f}" for frame, ped, x, y in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# five motion patterns: parallel / antiparallel pairs, a perpendicular
# crossing, converging diagonals, and a three-way crossing
OVERFIT_SCENES = {
    "parallel": [(1, (0.0, 0.0), (0.4, 0.0)), (2, (0.0, 1.0), (0.4, 0.0))],
    "antiparallel": [(1, (0.0, 0.0), (0.4, 0.0)), (2, (7.6, 1.0), (-0.4, 0.0))],
    "crossing": [(1, (0.0, 0.0), (0.4, 0.0)), (2, (4.0, -4.0), (0.0, 0.4))],
    "diagonals": [(1, (0.0, 0.0), (0.15, 0.3)), (2, (4.0, 0.0), (-0.15, 0.3))],
    "threeway": [(1, (0.0, 0.0), (0.3, 0.3)), (2, (6.0, 0.0), (-0.3, 0.3)),
                 (3, (3.0, 6.0), (0.0, -0.4))],
}


def _overfit_records(n_frames: int, jitter: float):
    """Each motion pattern's name and records, jittered from one stream."""
    rng = np.random.default_rng(JITTER_SEED)
    return [(name, linear_records(walkers, n_frames, jitter=jitter, rng=rng))
            for name, walkers in OVERFIT_SCENES.items()]


def overfit_windows(t_obs: int = DEFAULT_T_OBS, t_pred: int = DEFAULT_T_PRED,
                    jitter: float = OVERFIT_JITTER) -> list[Window]:
    """One window per motion pattern (each scene spans exactly one window)."""
    windows = []
    for _, records in _overfit_records(t_obs + t_pred, jitter):
        (window,) = build_windows(scene_from_records(records), t_obs=t_obs, t_pred=t_pred)
        windows.append(window)
    return windows


def write_overfit_scenes(directory, t_obs: int = DEFAULT_T_OBS, t_pred: int = DEFAULT_T_PRED,
                         jitter: float = OVERFIT_JITTER) -> list[Path]:
    """Write each motion pattern as its own trajectory file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [write_trajectory_file(directory / f"{name}.txt", records)
            for name, records in _overfit_records(t_obs + t_pred, jitter)]


def gradcheck_window(t_obs: int = DEFAULT_T_OBS, t_pred: int = DEFAULT_T_PRED) -> Window:
    """Tiny deterministic two-pedestrian window with curved paths.

    The curvature is strong enough that every attention channel sees pair
    pre-activations on both sides of the rectifier kink; flat fixtures can
    leave a channel in one linear regime, where its receiver-side weights
    become row-constant contributions that the softmax cancels, and a
    finite-difference check then compares float dust against float noise.
    """
    t = np.arange(t_obs + t_pred, dtype=np.float64)
    ped1 = np.stack([0.4 * t, 0.35 * np.sin(1.1 * t)], axis=-1)
    ped2 = np.stack([2.9 - 0.22 * t, 0.8 + 0.25 * np.cos(0.8 * t)], axis=-1)
    track = np.stack([ped1, ped2])
    obs, fut = track[:, :t_obs], track[:, t_obs:]
    return Window(obs=obs, fut=fut, ped_ids=[1, 2], origin=obs[:, -1].copy())

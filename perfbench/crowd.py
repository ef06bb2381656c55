"""Seeded synthetic crowds: random walkers at constant density.

Every window is drawn from a generator seeded by the workload seed, so the
same seed gives the same windows.  Walkers start uniformly inside a square
whose side grows with the crowd, sqrt(N / DENSITY), so the number of
neighbours within a fixed radius stays about the same at every crowd size.
Each walker keeps its own speed and turns by a small random amount per
step.  The program under test only ever receives the resulting ``Window``s.
"""

from __future__ import annotations

import math

import numpy as np

from stedge.data import Window

DENSITY = 0.3           # pedestrians per square metre
STEP_S = 0.4            # seconds between samples (2.5 fps, as in ETH/UCY)
SPEED_MPS = (1.3, 0.2)  # mean and spread of walking speed
TURN_RAD = 0.15         # spread of the heading change per step
T_OBS, T_PRED = 8, 12


def crowd_window(rng: np.random.Generator, n_peds: int) -> Window:
    """One window of ``n_peds`` walkers, 8 observed and 12 future steps."""
    side = math.sqrt(n_peds / DENSITY)
    steps = T_OBS + T_PRED
    start = rng.uniform(0.0, side, size=(n_peds, 2))
    speed = np.clip(rng.normal(*SPEED_MPS, size=n_peds), 0.5, 2.0)
    heading = (rng.uniform(0.0, 2.0 * math.pi, size=(n_peds, 1))
               + np.cumsum(rng.normal(0.0, TURN_RAD, size=(n_peds, steps)), axis=1))
    step = (speed * STEP_S)[:, None, None] * np.stack(
        [np.cos(heading), np.sin(heading)], axis=-1)
    track = start[:, None, :] + np.cumsum(step, axis=1)
    obs, fut = track[:, :T_OBS], track[:, T_OBS:]
    return Window(obs=obs, fut=fut, ped_ids=list(range(n_peds)),
                  origin=obs[:, -1].copy())


def crowd_windows(seed: int, sizes, repeats: int) -> list[Window]:
    """``repeats`` windows of every crowd size in ``sizes``, in a seeded
    random order; each size appears equally often, so the cost mix of a
    window sequence does not depend on the seed."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(np.repeat(np.asarray(sizes), repeats))
    return [crowd_window(rng, int(n)) for n in order]

"""Importing stedge makes the C allocator keep the heap it has freed, so a
window's temporaries do not page-fault back in on every window."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stedge.autodiff import _keep_freed_heap

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter, so the heap of the test process does not
# count.  Prints the minor page faults per window, after a warm-up, of a
# forward-only forecast and of a training step.
_FAULT_PROBE = """
import json, resource
import numpy as np
from stedge import ModelConfig, TrajectoryForecaster, backward
from stedge.data import Window

def walk(n_peds, seed):
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 0.2, size=(n_peds, 20, 2)) + (0.5, 0.0)
    track = rng.uniform(0.0, 8.0, size=(n_peds, 1, 2)) + np.cumsum(steps, axis=1)
    obs = track[:, :8]
    return Window(obs=obs, fut=track[:, 8:], ped_ids=list(range(n_peds)),
                  origin=obs[:, -1].copy())

def faults_per_window(step, repeats=4, warmup=4):
    for _ in range(warmup):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        step()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats

forecaster = TrajectoryForecaster(ModelConfig(max_distance=2.0), seed=0)
crowd = walk(16, seed=1)
trainer = TrajectoryForecaster(ModelConfig(), seed=0)
dense = walk(20, seed=2)
print(json.dumps({
    "predict": faults_per_window(lambda: forecaster.predict(crowd)),
    "train_step": faults_per_window(lambda: backward(trainer.loss(dense))),
}))
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_windows_reuse_freed_heap_instead_of_faulting_it_in():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert faults["predict"] < 100, faults
    assert faults["train_step"] < 100, faults


class _Libc:
    """A C library stub that records mallopt calls."""

    def __init__(self, returns=1):
        self.calls = []
        self.returns = returns

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.returns


def test_keep_freed_heap_sets_mmap_then_trim_threshold():
    libc = _Libc()
    _keep_freed_heap(libc)
    assert libc.calls == [(-3, 32 * 2**20), (-1, 2**31 - 1)]


def test_keep_freed_heap_leaves_trim_alone_when_mmap_call_fails():
    libc = _Libc(returns=0)
    _keep_freed_heap(libc)
    assert libc.calls == [(-3, 32 * 2**20)]


def test_keep_freed_heap_ignores_a_library_without_mallopt():
    _keep_freed_heap(object())

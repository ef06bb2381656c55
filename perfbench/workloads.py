"""The benchmark's workloads: closed loops driving stedge's public API.

One client, one process: the next window starts only after the previous
one has finished.  A workload's windows form an *episode*; the timed phase
repeats episodes until the run's time is up.  A training episode starts
from the same initial parameters and a fresh optimizer every time, so every
episode computes bit-identical losses -- each repeat is a same-seed rerun,
and any difference is a failed check.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from crowd import T_PRED, crowd_windows
from spans import SpanRecorder
from stedge import ModelConfig, TrajectoryForecaster, backward
from stedge.predictor import sample_trajectories
from stedge.trainer import AdamW, best_of_k_per_ped
from tracing import installed

SAMPLES = 20            # futures drawn per forecast window (best-of-20)
LEARNING_RATE = 1e-3
LOSS_END_STEPS = 2      # train_loss_end averages this many final minibatches
SETUP_REPEATS = (3, 20)  # setup_s is the median of 3 to 20 set-ups,
SETUP_BUDGET_S = 2.0     # repeated until this much set-up time is spent
PROXIMITY_M = 2.0       # max_distance wiring radius of forecast_proximity


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple[int, ...]      # crowd sizes N drawn from
    repeats: int                # windows of each size per episode
    batch: int | None           # windows per AdamW step; None: forecast only
    tail_pct: float             # percentile reported as window_ms_tail
    max_distance: float | None = None


WORKLOADS = {w.name: w for w in (
    Workload("train_small",
             "training steps on crowds of 2-5: bound by per-op overhead, the "
             "encoder and AdamW; the edge branch is a small share",
             (2, 3, 4, 5), repeats=8, batch=8, tail_pct=95),
    Workload("train_dense",
             "training steps on crowds of 12-20 (630-1770 edges per patch): the "
             "Laguerre edge filter dominates and three dense structures stay cached",
             (12, 16, 20), repeats=2, batch=2, tail_pct=75),
    Workload("forecast_proximity",
             "forward only (predict, 20 samples, best-of-20) with max_distance "
             "wiring: the structure is rebuilt per patch and no backward runs",
             tuple(range(4, 17)), repeats=4, batch=None, tail_pct=95,
             max_distance=PROXIMITY_M),
)}


@dataclass
class Calls:
    """The API calls a window makes outside the model, traced or not."""

    backward: object = backward
    sample: object = sample_trajectories
    best_of_k: object = best_of_k_per_ped

    @classmethod
    def of(cls, rec: SpanRecorder | None) -> "Calls":
        if rec is None:
            return cls()
        return cls(backward=rec.wrap("autodiff.backward", backward),
                   sample=rec.wrap("predictor.sample", sample_trajectories),
                   best_of_k=rec.wrap("trainer.best_of_k", best_of_k_per_ped))


@dataclass
class WindowResult:
    episode: int
    pos: int
    latency_s: float
    traced: bool
    ok: bool


@dataclass
class Run:
    """One workload's state after set-up, and what its windows measured."""

    workload: Workload
    seed: int
    windows: list
    model: TrajectoryForecaster
    initial: dict
    results: list[WindowResult] = field(default_factory=list)
    reference: dict = field(default_factory=dict)   # pos -> episode-0 output
    batch_losses: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    # -- set-up -------------------------------------------------------------

    @classmethod
    def set_up(cls, workload: Workload, seed: int, rec: SpanRecorder | None = None,
               crowd_size: dict | None = None) -> "Run":
        """Generate the inputs, initialise the model, and warm up on one
        window of each crowd size, which builds any cached structure."""
        windows = crowd_windows(seed, workload.sizes, workload.repeats)
        model = TrajectoryForecaster(
            ModelConfig(max_distance=workload.max_distance), seed=seed)
        initial = ({name: p.data.copy() for name, p in model.params.items()}
                   if workload.batch else {})   # training episodes restart from it
        for n in sorted(set(workload.sizes)):
            window = next(w for w in windows if w.n_peds == n)
            label = f"setup-N{n}"
            if crowd_size is not None:
                crowd_size[label] = n
            index = rec.open("setup", window=label) if rec else None
            model.forward(window)
            if rec:
                rec.close(index)
        return cls(workload, seed, windows, model, initial)

    # -- one episode ----------------------------------------------------------

    def episode(self, number: int, rec: SpanRecorder | None, crowd_size: dict,
                stop) -> bool:
        """Run the workload's windows once, traced into ``rec`` unless it is
        None; False if ``stop()`` cut the episode short."""
        calls = Calls.of(rec)
        if self.workload.batch is None:
            return self._forecast_episode(number, calls, rec, crowd_size, stop)
        return self._train_episode(number, calls, rec, crowd_size, stop)

    def _open_window(self, rec, crowd_size, pos):
        if rec is None:
            return None
        label = len(crowd_size)
        crowd_size[label] = self.windows[pos].n_peds
        return rec.open("window", window=label), rec.ops

    @staticmethod
    def _close_window(rec, handle):
        if rec is not None:
            index, ops = handle
            rec.close(index, size=rec.ops - ops)

    def _failed(self, exc: Exception) -> None:
        if len(self.errors) < 3:
            self.errors.append("".join(traceback.format_exception(exc)))

    def _train_episode(self, number, calls, rec, crowd_size, stop) -> bool:
        params = self.model.params
        for name, p in params.items():
            p.data[...] = self.initial[name]
        step = AdamW(params).step
        if rec is not None:
            step = rec.wrap("trainer.adamw", step)
        batch = self.workload.batch
        for first in range(0, len(self.windows), batch):
            if stop():
                return False
            params.zero_grad()
            done = []
            for pos in range(first, first + batch):
                handle = self._open_window(rec, crowd_size, pos)
                start = time.perf_counter()
                try:
                    loss = self.model.loss(self.windows[pos])
                    calls.backward(loss)
                    value = loss.item()
                    # the graph holds every intermediate and its gradient;
                    # free it before the next window is built
                    del loss
                except Exception as exc:    # counted as a failed window
                    self._failed(exc)
                    value = math.nan
                latency = time.perf_counter() - start
                self._close_window(rec, handle)
                done.append((pos, latency, value))
            start = time.perf_counter()
            try:
                for p in params.tensors():
                    if p.grad is not None:
                        p.grad *= 1.0 / len(done)
                step(LEARNING_RATE)
                stepped = True
            except Exception as exc:
                self._failed(exc)
                stepped = False
            share = (time.perf_counter() - start) / len(done)
            for pos, latency, value in done:
                ok = stepped and math.isfinite(value)
                ok = ok and self.reference.setdefault(pos, value) == value
                self.results.append(
                    WindowResult(number, pos, latency + share, rec is not None, ok))
            if number == 0:
                self.batch_losses.append(math.fsum(v for _, _, v in done) / len(done))
        return True

    def _forecast_episode(self, number, calls, rec, crowd_size, stop) -> bool:
        for pos, window in enumerate(self.windows):
            if stop():
                return False
            handle = self._open_window(rec, crowd_size, pos)
            start = time.perf_counter()
            try:
                track = self.model.predict(window)
                samples = calls.sample(track, SAMPLES, seed=[self.seed, pos])
                ade, _ = calls.best_of_k(samples, window.fut)
                failed = None
            except Exception as exc:
                failed = exc
            latency = time.perf_counter() - start
            self._close_window(rec, handle)
            if failed is not None:
                self._failed(failed)
                ok = False
            else:
                ok = (samples.shape == (SAMPLES, window.n_peds, T_PRED, 2)
                      and all(np.all(np.isfinite(a)) for a in
                              (track.mu, track.sigma, track.rho, samples, ade))
                      and bool(np.all(track.sigma > 0.0))
                      and bool(np.all(np.abs(track.rho) < 1.0))
                      and np.array_equal(self.reference.setdefault(pos, ade), ade))
            self.results.append(WindowResult(number, pos, latency, rec is not None, ok))
        return True

    # -- results --------------------------------------------------------------

    def quality(self) -> dict:
        """Exact-per-seed numerics of the first episode, with their units."""
        if self.workload.batch is None:
            ade = np.concatenate([self.reference[p] for p in sorted(self.reference)])
            return {"ade_best20": (float(ade.mean()), "m")}
        return {"train_loss_end": (math.fsum(self.batch_losses[-LOSS_END_STEPS:])
                                   / LOSS_END_STEPS, "nll")}


def timed_phase(run: Run, seconds: float, trace: bool,
                rec: SpanRecorder | None = None, crowd_size: dict | None = None):
    """Repeat episodes for ``seconds``; the first is the reference every
    later one must match bit for bit.  With tracing, traced and untraced
    episodes alternate, and at least three run so that traced windows can
    be compared with untraced ones other than the reference."""
    min_episodes = 3 if trace else 1
    deadline = time.perf_counter() + seconds
    complete = 0

    def stop():
        return complete >= min_episodes and time.perf_counter() >= deadline

    while not stop():
        traced = trace and complete % 2 == 1
        with installed(rec) if traced else nullcontext():
            if not run.episode(complete, rec if traced else None,
                               crowd_size if traced else {}, stop):
                break
        complete += 1
    return complete


def end_to_end(run: Run, setup_times: list[float], peak_rss_mb: float):
    latencies = np.array([r.latency_s for r in run.results])
    tail = float(np.percentile(latencies, run.workload.tail_pct))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "windows_per_s": (len(latencies) / float(latencies.sum()), "1/s"),
        "window_ms_p50": (1e3 * float(np.median(latencies)), "ms"),
        "window_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return metrics, int(np.sum(latencies > tail))


def overhead_pct(run: Run) -> float:
    """Traced against untraced latency, window by window position; the
    first episode, the reference, is left out."""
    by_pos = {}
    for r in run.results:
        if r.episode == 0:
            continue
        by_pos.setdefault(r.pos, ([], []))[r.traced].append(r.latency_s)
    pairs = [(statistics.fmean(t), statistics.fmean(u))
             for u, t in by_pos.values() if t and u]
    if not pairs:
        return 0.0
    return 100.0 * (math.fsum(t for t, _ in pairs) / math.fsum(u for _, u in pairs) - 1.0)


def timed_set_ups(workload: Workload, seed: int) -> tuple[Run, list[float]]:
    """Set up from scratch several times (cheap set-ups more often, so their
    median is steady); keep the last."""
    times, run = [], None
    least, most = SETUP_REPEATS
    while len(times) < least or (sum(times) < SETUP_BUDGET_S and len(times) < most):
        run = None
        gc.collect()
        start = time.perf_counter()
        run = Run.set_up(workload, seed)
        times.append(time.perf_counter() - start)
    return run, times

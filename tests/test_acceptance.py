"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from stedge.autodiff import Tensor, gradcheck
from stedge.edgegraph import (
    boundary_operator,
    hodge_laplacian,
    laguerre_basis,
    laguerre_scalars,
    line_graph,
)
from stedge.model import ModelConfig, TrajectoryForecaster, gradcheck_parameters
from stedge.predictor import (
    GaussianTrack,
    LOG_TWO_PI,
    bivariate_nll,
    sample_trajectories,
)
from stedge.stgraph import (
    PatchTooLongError,
    build_node_adjacency,
    edge_list,
    effective_resistance,
    patch_count,
    resistance_matrix,
)
from stedge.synth import gradcheck_window, overfit_windows
from stedge.trainer import TrainConfig, ade_fde, best_of_k_eval, train

# reduced widths keep the gradcheck and training criteria inside their
# stated runtime budgets; every tolerance below is exactly as specified
GRADCHECK_CONFIG = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2,
                               encoder_layers=1)
OVERFIT_CONFIG = ModelConfig(model_dim=16, encoder_dim=32, encoder_heads=2,
                             encoder_layers=1)
OVERFIT_JITTER = 0.03
OVERFIT_TRAIN = dict(epochs=500, batch_size=8, base_lr=0.01, lr_halve_every=50,
                     weight_decay=2e-3, eval_samples=20)
ABLATION_EPOCHS = 150
LOSS_SLACK = 1e-3  # float-plateau slack for the non-increasing check


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_patch_count_oracle():
    start = time.perf_counter()
    checked = 0
    for t_obs in range(2, 13):
        for length in range(1, t_obs + 1):
            for stride in range(1, 5):
                brute = sum(1 for s in range(0, t_obs, stride)
                            if s + length <= t_obs)
                assert patch_count(t_obs, length, stride) == brute
                checked += 1
    for stride in range(1, 5):
        with pytest.raises(PatchTooLongError):
            patch_count(8, 9, stride)
    elapsed = time.perf_counter() - start
    _report(1, "patch-count formula matches brute force", elapsed < 1.0,
            f"{checked} combinations in {elapsed:.3f}s")


def test_criterion_02_effective_resistance_oracle():
    start = time.perf_counter()
    p2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok = abs(effective_resistance(p2, 0, 1) - 1.0) < 1e-9
    c6 = np.zeros((6, 6))
    for i in range(6):
        c6[i, (i + 1) % 6] = c6[(i + 1) % 6, i] = 1.0
    ok &= abs(effective_resistance(c6, 0, 3) - 1.5) < 1e-9
    k6 = build_node_adjacency(6, 1)
    ok &= abs(effective_resistance(k6, 0, 5) - 1.0 / 3.0) < 1e-9

    rng = np.random.default_rng(42)
    tested = 0
    while tested < 200:
        adj = np.triu((rng.random((6, 6)) < 0.4).astype(float), 1)
        adj = adj + adj.T
        if np.linalg.matrix_rank(np.diag(adj.sum(1)) - adj) != 5:
            continue
        base = resistance_matrix(adj)
        absent = [(i, j) for i in range(6) for j in range(i + 1, 6)
                  if adj[i, j] == 0]
        for i, j in absent:
            denser = adj.copy()
            denser[i, j] = denser[j, i] = 1.0
            ok &= bool(np.all(resistance_matrix(denser) <= base + 1e-9))
        tested += 1
    elapsed = time.perf_counter() - start
    _report(2, "resistance closed forms + Rayleigh monotonicity",
            ok and elapsed < 5.0, f"200 graphs in {elapsed:.2f}s")


def test_criterion_03_boundary_hodge_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    graphs = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            adj = np.zeros((n, n))
            for b, (i, j) in enumerate(pairs):
                if bits >> b & 1:
                    adj[i, j] = adj[j, i] = 1.0
            b1 = boundary_operator(adj)
            l1 = hodge_laplacian(b1)
            m = b1.shape[1]
            if m:
                ok &= bool(np.all(np.diag(l1) == 2.0))
                ok &= np.linalg.eigvalsh(l1).min() >= -1e-10
            ladj = line_graph(edge_list(adj))
            ok &= bool(np.array_equal(np.abs(l1 - np.diag(np.diag(l1))), ladj))
            if m:
                signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
                flipped = hodge_laplacian(b1 * signs)
                d = np.diag(signs)
                ok &= bool(np.allclose(flipped, d @ l1 @ d, atol=0))
                ok &= bool(np.array_equal(np.abs(flipped), np.abs(l1)))
                ok &= bool(np.allclose(np.linalg.eigvalsh(flipped),
                                       np.linalg.eigvalsh(l1), atol=1e-10))
            graphs += 1
    elapsed = time.perf_counter() - start
    _report(3, "boundary/Hodge invariants on all graphs with <= 5 nodes",
            ok and elapsed < 10.0, f"{graphs} graphs in {elapsed:.2f}s")


def test_criterion_04_laguerre_correctness():
    rng = np.random.default_rng(11)
    ok = True
    for dim in (2, 5, 9, 15):
        a = rng.normal(size=(dim, dim))
        psd = a @ a.T / dim
        x = rng.normal(size=(dim, 3))
        basis = laguerre_basis(psd, Tensor(x), 4)
        w, v = np.linalg.eigh(psd)
        for j, t in enumerate(basis):
            scalars = np.array([laguerre_scalars(float(lam), 4)[j] for lam in w])
            spectral = (v * scalars) @ v.T @ x
            ok &= bool(np.allclose(t.data, spectral, atol=1e-8))
    for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
        got = laguerre_scalars(lam, 4)
        ok &= abs(got[2] - (lam ** 2 - 4 * lam + 2) / 2) < 1e-12
        ok &= abs(got[3] - (-lam ** 3 + 9 * lam ** 2 - 18 * lam + 6) / 6) < 1e-12
    _report(4, "Laguerre recurrence vs spectral basis and closed forms", ok)


def test_criterion_05_full_model_gradcheck():
    start = time.perf_counter()
    model = TrajectoryForecaster(
        GRADCHECK_CONFIG, params=gradcheck_parameters(GRADCHECK_CONFIG, seed=0))
    window = gradcheck_window()
    err = gradcheck(lambda: model.loss(window), model.params.tensors(),
                    eps=1e-5)
    elapsed = time.perf_counter() - start
    _report(5, "analytic gradient vs central differences on the full model",
            err < 1e-4 and elapsed < 120.0,
            f"max rel err {err:.2e} over {model.params.n_values()} "
            f"parameters in {elapsed:.0f}s")


def test_criterion_06_loss_oracle():
    targets = np.array([[[0.7, -1.1], [0.2, 0.4]]])
    at_mean = bivariate_nll(Tensor(targets.copy()),
                            Tensor(np.zeros((1, 2, 2))),
                            Tensor(np.zeros((1, 2, 1))), targets)
    ok = abs(at_mean.item() - LOG_TWO_PI) < 1e-10

    rng = np.random.default_rng(3)
    t = rng.normal(size=(2, 3, 2))
    mu = rng.normal(size=(2, 3, 2))
    ls = rng.normal(size=(2, 3, 2)) * 0.4
    joint = bivariate_nll(Tensor(mu), Tensor(ls), Tensor(np.zeros((2, 3, 1))), t)
    sigma = np.exp(ls)
    uni = 0.5 * math.log(2 * math.pi) + ls + (t - mu) ** 2 / (2 * sigma ** 2)
    ok &= abs(joint.item() - uni.sum(axis=-1).mean()) < 1e-10
    _report(6, "bivariate NLL equals log(2*pi) at the mean and factorizes "
               "at rho=0", ok)


def test_criterion_07_metric_oracle():
    truth = np.zeros((1, 2, 2))
    ok = ade_fde(truth, truth) == (0.0, 0.0)
    ok &= ade_fde(truth + np.array([1.0, 0.0]), truth) == (1.0, 1.0)
    pred = np.array([[[3.0, 4.0], [0.0, 0.0]]])
    ok &= ade_fde(pred, truth) == (2.5, 0.0)

    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.normal(size=(3, 6, 2))
        samples = rng.normal(size=(20, 3, 6, 2))
        ades = [best_of_k_eval(samples[:k], t)[0] for k in range(1, 21)]
        ok &= all(a >= b - 1e-12 for a, b in zip(ades, ades[1:]))
    _report(7, "ADE/FDE hand cases exact and best-of-K monotone", ok)


def test_criterion_08_sampling_statistics():
    ok = True
    for rho in (0.0, 0.8):
        track = GaussianTrack(mu=np.zeros((1, 1, 2)), sigma=np.ones((1, 1, 2)),
                              rho=np.full((1, 1), rho),
                              origin=np.zeros((1, 2)), ped_ids=[1])
        draws = sample_trajectories(track, count=100_000, seed=99)[:, 0, 0, :]
        cov = np.cov(draws.T)
        ok &= bool(np.all(np.abs(cov - [[1.0, rho], [rho, 1.0]]) < 0.05))
        ok &= abs(np.corrcoef(draws.T)[0, 1] - rho) < 0.05
    _report(8, "sampled covariance/correlation at rho in {0, 0.8}", ok)


def _overfit_run(seed, gate="vector", epochs=None, tmp_path=None):
    import dataclasses
    cfg = dataclasses.replace(OVERFIT_CONFIG, fusion_gate=gate)
    model = TrajectoryForecaster(cfg, seed=seed)
    tc = TrainConfig(seed=seed, **{**OVERFIT_TRAIN,
                                   **({"epochs": epochs} if epochs else {})})
    windows = overfit_windows(jitter=OVERFIT_JITTER)
    return train(model, windows, tc, tmp_path)


def test_criterion_09_overfit_capability(tmp_path):
    start = time.perf_counter()
    records = _overfit_run(seed=0, tmp_path=tmp_path / "overfit")
    elapsed = time.perf_counter() - start
    losses = [r["loss"] for r in records]
    ade = records[-1]["ade"]
    upticks = [(i, losses[i + 5] - losses[i]) for i in range(len(losses) - 5)
               if losses[i + 5] > losses[i] + LOSS_SLACK]
    worst = max(upticks, key=lambda u: u[1], default=None)
    largest = (f" (largest +{worst[1]:.3f}, epochs {worst[0]}-{worst[0] + 5})"
               if worst else "")
    detail = (f"best-of-20 ADE {ade:.4f}, {len(upticks)} non-monotone "
              f"5-epoch spans{largest}, {elapsed:.0f}s")
    _report(9, "500-epoch overfit: ADE < 0.05 and loss non-increasing "
               "with 5-epoch tolerance",
            ade < 0.05 and not upticks and elapsed < 600.0, detail)


def test_criterion_10_ablation_direction(tmp_path):
    wins = 0
    details = []
    for seed in (0, 1, 2):
        full = _overfit_run(seed, "vector", ABLATION_EPOCHS,
                            tmp_path / f"full{seed}")
        gated = _overfit_run(seed, "zero", ABLATION_EPOCHS,
                             tmp_path / f"zero{seed}")
        ade_full, ade_zero = full[-1]["ade"], gated[-1]["ade"]
        details.append(f"seed {seed}: full {ade_full:.4f} vs "
                       f"edge-disabled {ade_zero:.4f}")
        if ade_zero >= ade_full:
            wins += 1
    _report(10, "disabling the edge branch does not help (2 of 3 seeds)",
            wins >= 2, "; ".join(details))


def test_criterion_11_training_determinism(tmp_path):
    cfg = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2,
                      encoder_layers=1)
    tc = TrainConfig(epochs=3, batch_size=2, base_lr=0.01, seed=7,
                     eval_samples=3)
    logs = []
    for name in ("a", "b"):
        model = TrajectoryForecaster(cfg, seed=7)
        train(model, overfit_windows(), tc, tmp_path / name)
        logs.append((tmp_path / name / "metrics.jsonl").read_bytes())
    _report(11, "identical train runs produce bit-identical metrics logs",
            logs[0] == logs[1], f"{len(logs[0])} bytes compared")

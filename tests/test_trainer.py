import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stedge.autodiff import ParameterStore, ShapeMismatchError
from stedge.model import ModelConfig, TrajectoryForecaster
from stedge.synth import overfit_windows
from stedge.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    AdamW,
    CheckpointFormatError,
    NonFiniteGradientError,
    TrainConfig,
    ade_fde,
    best_of_k_eval,
    best_of_k_per_ped,
    evaluate,
    load_checkpoint,
    lr_at,
    rotate_window,
    save_checkpoint,
    train,
)

SMALL = ModelConfig(model_dim=8, encoder_dim=16, encoder_heads=2, encoder_layers=1)


# -- optimizer ---------------------------------------------------------------


def _store(value):
    store = ParameterStore()
    store.add("w", np.array(value, dtype=float))
    return store


def test_adamw_zero_grad_zero_decay_is_noop():
    store = _store([1.5, -2.0])
    opt = AdamW(store, weight_decay=0.0)
    store["w"].grad = np.zeros(2)
    opt.step(lr=0.1)
    np.testing.assert_array_equal(store["w"].data, [1.5, -2.0])
    store["w"].grad = None  # absent gradient behaves like zero
    opt.step(lr=0.1)
    np.testing.assert_array_equal(store["w"].data, [1.5, -2.0])


def test_adamw_constant_gradient_limits_to_lr_sign():
    store = _store([0.0])
    opt = AdamW(store, weight_decay=0.0)
    lr = 1e-3
    g = np.array([0.37])
    last = store["w"].data.copy()
    for _ in range(10_000):
        store["w"].grad = g.copy()
        last = store["w"].data.copy()
        opt.step(lr)
    step = last - store["w"].data
    assert step[0] == pytest.approx(lr * np.sign(g[0]), rel=0.01)


def test_adamw_decoupled_decay():
    store = _store([2.0])
    opt = AdamW(store, weight_decay=0.1)
    store["w"].grad = np.zeros(1)
    opt.step(lr=1.0)
    assert store["w"].data[0] == pytest.approx(2.0 * 0.9)


def test_adamw_rejects_nonfinite_gradient():
    store = _store([1.0])
    opt = AdamW(store)
    store["w"].grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="w"):
        opt.step(lr=0.1)


def test_adamw_zero_lr_changes_nothing():
    store = _store([1.0, 2.0])
    opt = AdamW(store, weight_decay=0.0)
    store["w"].grad = np.array([0.3, -0.4])
    opt.step(lr=0.0)
    np.testing.assert_array_equal(store["w"].data, [1.0, 2.0])


def test_lr_schedule():
    cfg = TrainConfig(epochs=1, base_lr=0.001, lr_halve_every=50)
    assert lr_at(0, cfg) == pytest.approx(0.001)
    assert lr_at(49, cfg) == pytest.approx(0.001)
    assert lr_at(50, cfg) == pytest.approx(0.0005)
    assert lr_at(100, cfg) == pytest.approx(0.00025)


def test_unknown_augment_mode_is_rejected_at_construction():
    # a misspelt mode used to be accepted and then skip augmentation silently
    with pytest.raises(ValueError, match="rotat"):
        TrainConfig(augment="rotat")
    assert TrainConfig(augment="rotate").augment == "rotate"


@pytest.mark.parametrize("settings", [
    {"base_lr": float("nan")}, {"base_lr": float("inf")},
    {"weight_decay": float("inf")}, {"seed": -1},
])
def test_train_config_checks_every_range_at_construction(settings):
    with pytest.raises(ValueError):
        TrainConfig(**settings)


# -- metrics ------------------------------------------------------------------


def test_ade_fde_hand_cases():
    truth = np.zeros((1, 2, 2))
    assert ade_fde(truth, truth) == (0.0, 0.0)
    offset = truth + np.array([1.0, 0.0])
    assert ade_fde(offset, truth) == (pytest.approx(1.0), pytest.approx(1.0))
    pred = np.array([[[3.0, 4.0], [0.0, 0.0]]])  # errors 5 then 0
    ade, fde = ade_fde(pred, truth)
    assert ade == pytest.approx(2.5)
    assert fde == pytest.approx(0.0)


def test_ade_fde_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ade_fde(np.zeros((1, 2, 2)), np.zeros((2, 2, 2)))


def test_ade_fde_translation_and_scaling():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=(3, 5, 2))
    truth = rng.normal(size=(3, 5, 2))
    base = ade_fde(pred, truth)
    shift = rng.normal(size=2)
    shifted = ade_fde(pred + shift, truth + shift)
    assert shifted == pytest.approx(base, abs=1e-12)
    scaled = ade_fde(pred * 2.5, truth * 2.5)
    assert scaled[0] == pytest.approx(2.5 * base[0])
    assert scaled[1] == pytest.approx(2.5 * base[1])


def test_best_of_one_equals_ade_fde():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(2, 4, 2))
    truth = rng.normal(size=(2, 4, 2))
    assert best_of_k_eval(pred[None], truth) == pytest.approx(ade_fde(pred, truth))


def test_best_of_k_perfect_sample_wins():
    rng = np.random.default_rng(2)
    truth = rng.normal(size=(2, 4, 2))
    samples = rng.normal(size=(20, 2, 4, 2)) * 5
    samples[13] = truth
    assert best_of_k_eval(samples, truth) == (0.0, 0.0)


def test_best_of_k_min_selection():
    truth = np.zeros((1, 2, 2))
    good = truth + np.array([0.4, 0.0])   # per-ped ADE 0.4
    bad = truth + np.array([1.0, 0.0])    # per-ped ADE 1.0
    ade, fde = best_of_k_eval(np.stack([bad, good]), truth)
    assert ade == pytest.approx(0.4)
    assert fde == pytest.approx(0.4)


def test_best_of_k_monotone_in_k():
    rng = np.random.default_rng(3)
    truth = rng.normal(size=(3, 6, 2))
    samples = rng.normal(size=(20, 3, 6, 2))
    ades = [best_of_k_eval(samples[:k], truth)[0] for k in range(1, 21)]
    assert all(a >= b - 1e-12 for a, b in zip(ades, ades[1:]))


def test_best_of_k_argmin_scale_invariant():
    rng = np.random.default_rng(4)
    truth = rng.normal(size=(2, 5, 2))
    samples = rng.normal(size=(8, 2, 5, 2))
    err = np.linalg.norm(samples - truth[None], axis=-1).mean(axis=2)
    pick = err.argmin(axis=0)
    err_scaled = np.linalg.norm(3.0 * samples - 3.0 * truth[None], axis=-1).mean(axis=2)
    np.testing.assert_array_equal(err_scaled.argmin(axis=0), pick)
    ade, _ = best_of_k_per_ped(samples, truth)
    ade_scaled, _ = best_of_k_per_ped(3.0 * samples, 3.0 * truth)
    np.testing.assert_allclose(ade_scaled, 3.0 * ade, atol=1e-12)


@pytest.mark.parametrize("samples_shape, truth_shape", [
    ((4, 3, 12, 2), (1, 12, 2)),   # one track would score all three pedestrians
    ((4, 3, 12, 2), (3, 1, 2)),    # one step would score all twelve
    ((4, 12, 2), (12, 2)),         # no pedestrian axis
    ((0, 3, 12, 2), (3, 12, 2)),   # no sample to pick the best of
])
def test_best_of_k_rejects_mismatched_shapes(samples_shape, truth_shape):
    with pytest.raises(ShapeMismatchError,
                       match=re.escape(f"{samples_shape}") + ".*" + re.escape(f"{truth_shape}")):
        best_of_k_per_ped(np.zeros(samples_shape), np.zeros(truth_shape))


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = TrajectoryForecaster(SMALL, seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model.params)
    blank = TrajectoryForecaster(SMALL, seed=99)
    load_checkpoint(path, blank.params)
    for name in model.params.names():
        np.testing.assert_array_equal(blank.params[name].data,
                                      model.params[name].data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = TrajectoryForecaster(SMALL, seed=3)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model.params)
    other = TrajectoryForecaster(
        ModelConfig(model_dim=4, encoder_dim=16, encoder_heads=2,
                    encoder_layers=1), seed=3)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path, other.params)


def _saved_store(tmp_path, name="ckpt.bin"):
    model = TrajectoryForecaster(SMALL, seed=3)
    path = tmp_path / name
    save_checkpoint(path, model.params)
    return path, model.params


@pytest.mark.parametrize("cut", [len(b"STEDGECKPT") + 3, -1, -9])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    # inside the header, inside the last value, and one whole value short
    path, params = _saved_store(tmp_path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CheckpointFormatError, match="truncated") as err:
        load_checkpoint(path, params)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_extents_numpy_cannot_hold(tmp_path):
    # no value to read behind a zero extent, but the other two overflow
    # numpy's index range, so the value cannot take the shape
    path = tmp_path / "ckpt.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, 1, 1) + b"w"
                     + struct.pack("<4I", 3, 2**32 - 1, 2**32 - 1, 0))
    with pytest.raises(CheckpointFormatError, match=r"parameter b'w'") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_refuses_version_1(tmp_path):
    """A version-1 file has the layout of version 2 but holds weights
    trained for the edge filter scaled by each patch's top eigenvalue, so
    it is refused by its version and the store is left as it was."""
    path, _ = _saved_store(tmp_path)
    buf = path.read_bytes()
    head = len(CHECKPOINT_MAGIC)
    assert struct.unpack("<I", buf[head:head + 4]) == (CHECKPOINT_VERSION,) == (2,)
    path.write_bytes(buf[:head] + struct.pack("<I", 1) + buf[head + 4:])
    params = TrajectoryForecaster(SMALL, seed=99).params   # other values than the file's
    before = {name: p.data.copy() for name, p in params.items()}
    with pytest.raises(CheckpointFormatError, match="unsupported version 1") as err:
        load_checkpoint(path, params)
    assert str(path) in str(err.value)
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, params = _saved_store(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointFormatError, match="trailing") as err:
        load_checkpoint(path, params)
    assert str(path) in str(err.value)


_SHAPES = st.lists(st.lists(st.integers(1, 3), max_size=3).map(tuple),
                   min_size=1, max_size=4)


def _random_store(shapes, seed):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for k, shape in enumerate(shapes):
        store.add(f"layer{k}.w", rng.normal(size=shape))
    return store


@given(shapes=_SHAPES, seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_checkpoint_round_trip_and_corruption(tmp_path_factory, shapes, seed, data):
    """Any store round-trips bit for bit; any cut, appended tail or flipped
    byte either loads or raises CheckpointFormatError naming the file."""
    store = _random_store(shapes, seed)
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.bin"
    save_checkpoint(path, store)
    blob = path.read_bytes()
    values = load_checkpoint(path)
    assert list(values) == store.names()
    for name, arr in values.items():
        np.testing.assert_array_equal(arr, store[name].data)

    cut = data.draw(st.integers(0, len(blob) - 1))
    tail = data.draw(st.binary(min_size=1, max_size=16))
    at = data.draw(st.integers(0, len(blob) - 1))
    flipped = bytearray(blob)
    flipped[at] ^= data.draw(st.integers(1, 255))
    for corrupt, must_fail in ((blob[:cut], True), (blob + tail, True),
                               (bytes(flipped), False)):
        path.write_bytes(corrupt)
        try:
            load_checkpoint(path, _random_store(shapes, seed + 1))
        except CheckpointFormatError as exc:
            assert str(path) in str(exc)
        else:
            assert not must_fail


# -- training loop -----------------------------------------------------------------


def test_rotate_window_preserves_relative_geometry():
    w = overfit_windows()[2]
    rotated = rotate_window(w, 0.73)
    d_orig = np.linalg.norm(w.obs[0] - w.obs[1], axis=-1)
    d_rot = np.linalg.norm(rotated.obs[0] - rotated.obs[1], axis=-1)
    np.testing.assert_allclose(d_rot, d_orig, atol=1e-12)
    np.testing.assert_array_equal(rotated.origin, rotated.obs[:, -1])


def test_single_window_training_reduces_loss(tmp_path):
    windows = overfit_windows()[:1]
    model = TrajectoryForecaster(SMALL, seed=0)
    cfg = TrainConfig(epochs=300, batch_size=4, base_lr=0.005, seed=0,
                      eval_samples=4)
    records = train(model, windows, cfg, tmp_path / "run")
    assert len(records) == 300
    assert records[-1]["loss"] < records[0]["loss"]


def test_training_is_bit_deterministic(tmp_path):
    """Two runs from one seed write the same bytes, with and without
    rotation; rotation draws its angles from the seed and changes the run."""
    windows = overfit_windows()
    logs = {}
    for augment in ("off", "rotate"):
        cfg = TrainConfig(epochs=3, batch_size=2, base_lr=0.01, seed=5,
                          eval_samples=3, augment=augment)
        runs = []
        for name in ("a", "b"):
            model = TrajectoryForecaster(SMALL, seed=5)
            out = tmp_path / augment / name
            train(model, windows, cfg, out)
            runs.append([(out / f).read_bytes()
                         for f in ("metrics.jsonl", "checkpoint.bin")])
        assert runs[0] == runs[1], augment
        logs[augment] = runs[0][0]
    assert logs["rotate"] != logs["off"]


def test_training_writes_metrics_and_checkpoint(tmp_path):
    windows = overfit_windows()[:2]
    model = TrajectoryForecaster(SMALL, seed=1)
    cfg = TrainConfig(epochs=2, batch_size=8, seed=1, eval_samples=2)
    records = train(model, windows, cfg, tmp_path / "run")
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed == records
    assert {"epoch", "loss", "ade", "fde", "lr"} <= set(parsed[0])
    restored = TrajectoryForecaster(SMALL, seed=42)
    load_checkpoint(tmp_path / "run" / "checkpoint.bin", restored.params)
    ref = evaluate(model, windows, 2, cfg.seed)
    got = evaluate(restored, windows, 2, cfg.seed)
    assert got == ref


def test_evaluate_pools_over_windows():
    model = TrajectoryForecaster(SMALL, seed=2)
    windows = overfit_windows()[:3]
    out = evaluate(model, windows, n_samples=3, seed=0)
    assert out["n_windows"] == 3
    assert out["ade"] > 0 and out["fde"] > 0

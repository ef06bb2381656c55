import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stedge.autodiff import ParameterStore
from stedge.data import (
    DuplicateObservationError,
    EmptyFileError,
    MalformedLineError,
    TrajectoryScene,
    Window,
    build_windows,
    future_displacements,
    init_features,
    motion_features,
    parse_trajectory_file,
    scene_from_records,
)
from stedge.synth import linear_records, write_trajectory_file


def _write(tmp_path, text, name="scene.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_minimal_file(tmp_path):
    scene = parse_trajectory_file(_write(tmp_path, "0 1 0.0 0.0\n10 1 1.0 0.0\n"))
    assert scene.ped_ids() == [1]
    assert scene.frame_stride == 10
    assert len(scene.records) == 2


def test_parse_accepts_a_utf8_byte_order_mark(tmp_path):
    text = "0 1 0.0 0.0\n10 1 1.0 0.0\n"
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_trajectory_file(marked) == parse_trajectory_file(_write(tmp_path, text))


def test_parse_accepts_float_ids_and_comments(tmp_path):
    text = "# header comment\n0.0 2.0 1.5 2.5   # trailing\n\n10.0 2.0 2.5 2.5\n"
    scene = parse_trajectory_file(_write(tmp_path, text))
    assert scene.records[0] == (0, 2, 1.5, 2.5)


def test_parse_malformed_line_reports_number(tmp_path):
    with pytest.raises(MalformedLineError, match=":2"):
        parse_trajectory_file(_write(tmp_path, "0 1 0 0\n0 1 oops\n"))


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_parse_rejects_non_finite_coordinate(tmp_path, coord):
    path = _write(tmp_path, f"0 1 0 0\n10 1 {coord} 0\n20 1 2 0\n")
    with pytest.raises(MalformedLineError, match=f"{path.name}:2"):
        parse_trajectory_file(path)
    with pytest.raises(MalformedLineError, match=f"{path.name}:2"):
        parse_trajectory_file(_write(tmp_path, f"0 1 0 0\n10 1 0 {coord}\n"))


@pytest.mark.parametrize("coord", ["4.75e153", "-4.75e153", "1e200"])
def test_parse_rejects_coordinate_whose_squares_overflow(tmp_path, coord):
    # up to the bound, squared distances stay finite; beyond it they overflow
    path = _write(tmp_path, f"0 1 0 0\n10 1 {coord} 0\n20 1 2 0\n")
    with pytest.raises(MalformedLineError, match=f"{path.name}:2"):
        parse_trajectory_file(path)
    with pytest.raises(MalformedLineError, match=f"{path.name}:2"):
        parse_trajectory_file(_write(tmp_path, f"0 1 0 0\n10 1 0 {coord}\n"))
    edge = "4.74e153"
    scene = parse_trajectory_file(
        _write(tmp_path, f"0 1 {edge} -{edge}\n0 2 -{edge} {edge}\n"))
    (_, _, x0, y0), (_, _, x1, y1) = scene.records
    assert math.isfinite((x0 - x1) ** 2 + (y0 - y1) ** 2)


def test_parse_names_the_line_of_undecodable_bytes(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_bytes(b"0 1 0 0\n\xff\xfe10 1 1 0\n")
    with pytest.raises(MalformedLineError, match=f"{path.name}:2"):
        parse_trajectory_file(path)


@pytest.mark.parametrize("x", [math.nan, math.inf, 1e200, -4.75e153])
def test_scene_from_records_applies_the_coordinate_bound(x):
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)),
                              (2, (0.0, 1.0), (0.4, 0.1))], n_frames=20)
    frame, ped, _, y = records[5]
    records[5] = (frame, ped, x, y)
    with pytest.raises(ValueError, match=f"frame {frame}, pedestrian {ped}"):
        scene_from_records(records)
    records[5] = (frame, ped, y, x)
    with pytest.raises(ValueError, match=f"frame {frame}, pedestrian {ped}"):
        scene_from_records(records)


_GOOD_RECORDS = ((0, 1, 0.0, 0.0), (1, 1, 0.4, 0.0))


@pytest.mark.parametrize("records, stride, error, message", [
    pytest.param(_GOOD_RECORDS, 0, ValueError, "frame_stride must be >= 1, got 0",
                 id="stride_zero"),
    pytest.param(_GOOD_RECORDS, -1, ValueError, "frame_stride must be >= 1, got -1",
                 id="stride_backwards"),
    pytest.param(_GOOD_RECORDS + ((1, 1, 0.5, 0.0),), 1, DuplicateObservationError,
                 "duplicate observation for frame 1, pedestrian 1", id="duplicate"),
    pytest.param((), 1, EmptyFileError, "no observations", id="empty"),
    pytest.param(((0, 1, 0.0, math.inf),), 1, ValueError,
                 "frame 0, pedestrian 1: non-finite coordinate", id="non_finite"),
])
def test_scene_built_in_code_is_checked(records, stride, error, message):
    """A scene checks itself, however it is built: the same errors as
    ``scene_from_records``, and a stride of at least one frame."""
    TrajectoryScene(records=_GOOD_RECORDS, frame_stride=1)
    with pytest.raises(error, match=message):
        TrajectoryScene(records=records, frame_stride=stride)


def _two_walker_fields():
    """A valid two-walker window's constructor arguments."""
    (window,) = build_windows(scene_from_records(linear_records(
        [(1, (0.0, 0.0), (0.4, 0.0)), (2, (0.0, 1.0), (0.4, 0.1))],
        n_frames=20)))
    return {"obs": window.obs, "fut": window.fut,
            "ped_ids": window.ped_ids, "origin": window.origin}


def _with_obs_value(value):
    obs = _two_walker_fields()["obs"].copy()
    obs[1, 3, 0] = value
    return {"obs": obs}


@pytest.mark.parametrize("change, message", [
    pytest.param({"ped_ids": [1]}, r"Window.obs must be \(N, T_obs, 2\) with N = 1",
                 id="ped_ids"),
    pytest.param({"origin": np.zeros((1, 2))},
                 r"Window.origin must be \(N, 2\) with N = 2 ped_ids, "
                 r"got shape \(1, 2\)", id="origin"),
    pytest.param({"fut": np.zeros((2, 12))}, r"Window.fut must be \(N, T_pred, 2\)",
                 id="fut"),
    pytest.param(_with_obs_value(math.nan), "Window.obs: non-finite coordinate",
                 id="nan"),
    pytest.param(_with_obs_value(-1e200), "Window.obs: coordinate beyond",
                 id="bound"),
    pytest.param({"obs": np.zeros((0, 8, 2)), "fut": np.zeros((0, 12, 2)),
                  "ped_ids": [], "origin": np.zeros((0, 2))},
                 "Window.ped_ids is empty", id="no_pedestrian"),
])
def test_window_checks_its_arrays_when_built(change, message):
    fields = _two_walker_fields()
    Window(**fields)
    with pytest.raises(ValueError, match=message):
        Window(**{**fields, **change})


def test_parse_duplicate_observation(tmp_path):
    with pytest.raises(DuplicateObservationError):
        parse_trajectory_file(_write(tmp_path, "0 1 0 0\n0 1 0 0\n"))


def test_parse_empty_file(tmp_path):
    with pytest.raises(EmptyFileError):
        parse_trajectory_file(_write(tmp_path, "# only a comment\n"))


def test_parse_synthetic_two_ped_fixture(tmp_path):
    records = linear_records([(1, (0.0, 0.0), (1.0, 0.0)),
                              (2, (5.0, 5.0), (-1.0, 0.0))], n_frames=10)
    scene = parse_trajectory_file(write_trajectory_file(tmp_path / "s.txt", records))
    assert scene.ped_ids() == [1, 2]
    assert len(scene.records) == 20


def test_windows_exact_span():
    scene = scene_from_records(linear_records(
        [(1, (0.0, 0.0), (1.0, 0.0)), (2, (0.0, 1.0), (1.0, 0.0))], n_frames=20))
    windows = build_windows(scene)
    assert len(windows) == 1
    assert windows[0].n_peds == 2
    assert windows[0].obs.shape == (2, 8, 2)
    assert windows[0].fut.shape == (2, 12, 2)
    np.testing.assert_array_equal(windows[0].origin, windows[0].obs[:, -1])


def test_windows_sliding_count():
    scene = scene_from_records(linear_records(
        [(1, (0.0, 0.0), (1.0, 0.0))], n_frames=21))
    assert len(build_windows(scene)) == 2  # 21 - 20 + 1


def test_windows_exclude_short_pedestrian():
    records = linear_records([(1, (0.0, 0.0), (1.0, 0.0))], n_frames=20)
    records += linear_records([(2, (9.0, 9.0), (0.0, 1.0))], n_frames=10)
    windows = build_windows(scene_from_records(records))
    assert len(windows) == 1
    assert windows[0].ped_ids == [1]


def test_windows_respect_frame_stride():
    scene = scene_from_records(linear_records(
        [(1, (0.0, 0.0), (0.5, 0.0))], n_frames=20, frame_stride=10))
    windows = build_windows(scene)
    assert len(windows) == 1
    assert windows[0].start_frame == 0


@given(n_frames=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_window_count_matches_brute_force(n_frames):
    scene = scene_from_records(linear_records(
        [(1, (0.0, 0.0), (1.0, 0.0))], n_frames=n_frames))
    got = len(build_windows(scene))
    # brute force: test every start frame independently
    frames = scene.frames()
    expected = sum(1 for start in frames
                   if all(start + i in frames for i in range(20)))
    assert got == expected


def _square_window():
    # one pedestrian moving (+1, +1), one stationary
    t = np.arange(20, dtype=float)
    mover = np.stack([t, t], axis=-1)
    still = np.full((20, 2), 3.0)
    track = np.stack([mover, still])
    return Window(obs=track[:, :8], fut=track[:, 8:], ped_ids=[1, 2],
                  origin=track[:, 7].copy())


def test_motion_features_values():
    vel, norm, angle = motion_features(_square_window().obs)
    # first step is defined as zero velocity
    np.testing.assert_array_equal(vel[:, 0], 0.0)
    np.testing.assert_allclose(norm[0, 1:], math.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(angle[0, 1:], math.pi / 4.0, atol=1e-12)
    # stationary pedestrian: rho = 0 and theta := 0, never NaN
    np.testing.assert_array_equal(norm[1], 0.0)
    np.testing.assert_array_equal(angle[1], 0.0)


def test_velocity_round_trip():
    w = _square_window()
    vel, _, _ = motion_features(w.obs)
    rebuilt = w.obs[:, 0:1, :] + np.cumsum(vel[:, 1:], axis=1)
    np.testing.assert_allclose(rebuilt, w.obs[:, 1:], atol=1e-12)


def _feature_params(e=4, seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    store.add("feat.w_v", rng.normal(size=(2, e)))
    store.add("feat.w_norm", rng.normal(size=(1, e)))
    store.add("feat.w_angle", rng.normal(size=(1, e)))
    return store


def test_features_translation_invariant():
    params = _feature_params()
    w = _square_window()
    a = init_features(w.obs, params).data
    b = init_features(w.obs + np.array([13.0, -7.0]), params).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert a.shape == (2, 8, 12)  # N x T_obs x 3E


def test_future_displacements_cumsum_back():
    w = _square_window()
    disp = future_displacements(w)
    rebuilt = w.origin[:, None, :] + np.cumsum(disp, axis=1)
    np.testing.assert_allclose(rebuilt, w.fut, atol=1e-12)

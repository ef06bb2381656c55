import csv
import io
import json

import numpy as np
import pytest

from stedge.cli import run
from stedge.config import (
    BadConfigError,
    CONFIG_KEYS,
    default_config,
    load_config,
    parse_config_text,
)
from stedge.synth import linear_records, write_overfit_scenes, write_trajectory_file

TINY_MODEL = """
data.t_obs = 8
data.t_pred = 12
model.dim = 8
encoder.dim = 16
encoder.heads = 2
encoder.layers = 1
"""


def _config_file(tmp_path, extra="", name="run.cfg"):
    path = tmp_path / name
    path.write_text(TINY_MODEL + extra, encoding="utf-8")
    return path


def _scene_file(tmp_path, n_frames=20):
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)),
                              (2, (0.0, 1.0), (0.4, 0.1))], n_frames=n_frames)
    return write_trajectory_file(tmp_path / "scene.txt", records)


# -- config parsing ------------------------------------------------------------


def test_defaults_cover_every_key():
    cfg = default_config()
    for key in CONFIG_KEYS:
        assert cfg[key] is not None
    assert cfg["data.t_obs"] == 8
    assert cfg["train.batch_size"] == 128
    assert cfg["eval.samples"] == 20
    assert cfg["preprocess.endpoint_mode"] == "off"


def test_unknown_key_is_named():
    with pytest.raises(BadConfigError, match="patch.lenght"):
        parse_config_text("patch.lenght = 3\n")


def test_bad_value_is_named():
    with pytest.raises(BadConfigError, match="train.epochs"):
        parse_config_text("train.epochs = -2\n")
    with pytest.raises(BadConfigError, match="hll.rescale"):
        parse_config_text("hll.rescale = yes\n")
    with pytest.raises(BadConfigError, match="fusion.gate"):
        parse_config_text("fusion.gate = open\n")


def test_cross_validation():
    with pytest.raises(BadConfigError, match="patch.len"):
        parse_config_text("patch.len = 9\n")
    with pytest.raises(BadConfigError, match="encoder.dim"):
        parse_config_text("encoder.dim = 10\nencoder.heads = 4\n")


def test_config_comments_and_spacing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n  seed = 7   # inline\n\npatch.len=2\n")
    cfg = load_config(path)
    assert cfg["seed"] == 7
    assert cfg["patch.len"] == 2


def test_model_and_train_config_builders():
    cfg = parse_config_text("graph.max_distance = 2.5\ntrain.base_lr = 0.01\n")
    mc = cfg.model_config()
    assert mc.max_distance == 2.5
    assert cfg.train_config().base_lr == 0.01
    assert default_config().model_config().max_distance is None


# -- subcommands ----------------------------------------------------------------


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    cfg = _config_file(tmp_path, "patch.lenght = 3\n")
    code = run(["graph-stats", "--config", str(cfg)])
    assert code != 0
    assert "patch.lenght" in capsys.readouterr().err


def test_graph_stats_reports_windows(tmp_path, capsys):
    scene = _scene_file(tmp_path, n_frames=21)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["graph-stats", "--config", str(cfg), "--edges",
                "--pair", "1,0,2,0", "--pair", "1,0,2,9"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # 21 frames -> 2 windows
    report = json.loads(lines[0])
    assert report["n_peds"] == 2
    assert len(report["patches"]) == 6
    patch = report["patches"][0]
    assert patch["nodes"] == 6 and patch["edges"] == 15
    assert patch["degree_histogram"] == {"8": 15}  # line graph of K6 is 8-regular
    assert len(patch["l1_spectrum"]) == 15
    assert min(patch["l1_spectrum"]) >= -1e-9
    # in-range pair resolved in every covering patch; out-of-range pair absent
    pairs_seen = {tuple(map(tuple, r["pair"])) for r in report["resistance"]}
    assert ((1, 0), (2, 0)) in pairs_seen
    assert ((1, 0), (2, 9)) not in pairs_seen
    values = [r["resistance"] for r in report["resistance"]]
    assert all(v is not None and v > 0 for v in values)


def test_eval_oracle_scores_zero(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["eval", "--config", str(cfg), "--oracle"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result == {"ade": 0.0, "fde": 0.0, "n_windows": 1}


def test_eval_without_checkpoint_fails(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["eval", "--config", str(cfg)])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_eval_with_corrupt_checkpoint_fails(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    ckpt = tmp_path / "short.bin"
    ckpt.write_bytes(b"STEDGECKPT\x01\x00")
    code = run(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "truncated" in err


def test_non_finite_coordinate_exits_with_line(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 1 0 0\n10 1 nan 0\n", encoding="utf-8")
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["graph-stats", "--config", str(cfg)])
    assert code == 1
    assert f"{scene}:2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_forward_exits_3_naming_the_op(tmp_path, capsys):
    # finite coordinates whose squared distances overflow float64
    records = linear_records([(1, (0.0, 0.0), (1e199, 0.0)),
                              (2, (1e200, 1e200), (0.0, -1e199))], n_frames=20)
    scene = tmp_path / "huge.txt"
    scene.write_text("".join(f"{f} {p} {x!r} {y!r}\n" for f, p, x, y in records),
                     encoding="utf-8")
    out_dir = tmp_path / "run"
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  f"train.out_dir = {out_dir}\n"
                                  "train.epochs = 1\n"))
    code = run(["train", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite forward" in err and "op '" in err


def test_train_eval_predict_round_trip(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  f"train.out_dir = {out_dir}\n"
                                  "train.epochs = 3\n"
                                  "eval.samples = 3\n"))
    assert run(["train", "--config", str(cfg)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs"] == 3
    ckpt = summary["checkpoint"]
    assert (out_dir / "metrics.jsonl").exists()

    assert run(["eval", "--config", str(cfg), "--checkpoint", ckpt]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["n_windows"] == 1 and np.isfinite(result["ade"])

    out_csv = tmp_path / "pred.csv"
    assert run(["predict", "--config", str(cfg), "--checkpoint", ckpt,
                "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 2 * 12  # samples x peds x steps
    assert {r["ped_id"] for r in rows} == {"1", "2"}
    assert {int(r["t"]) for r in rows} == set(range(1, 13))
    float(rows[0]["x"]), float(rows[0]["y"])  # parseable coordinates


def test_train_leave_out(tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_overfit_scenes(data_dir)
    out_dir = tmp_path / "run"
    cfg = _config_file(tmp_path, (f"data.path = {data_dir}\n"
                                  f"train.out_dir = {out_dir}\n"
                                  "train.epochs = 2\n"
                                  "eval.samples = 2\n"))
    assert run(["train", "--config", str(cfg), "--leave-out", "crossing"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["held_out"]["n_windows"] == 1
    assert run(["train", "--config", str(cfg), "--leave-out", "nosuch"]) == 2


def test_gradcheck_cli_passes_on_tiny_fixture(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    code = run(["gradcheck", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["max_rel_err"] < 1e-4


def test_missing_data_path(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    code = run(["eval", "--config", str(cfg), "--oracle"])
    assert code == 2
    assert "data.path" in capsys.readouterr().err

import csv
import io
import json
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import stedge.cli
import stedge.model
import stedge.stgraph
from stedge.cli import build_parser, run
from stedge.config import (
    BadConfigError,
    CONFIG_KEYS,
    Config,
    config_help,
    load_config,
    parse_config_text,
)
from stedge.model import ModelConfig, TrajectoryForecaster
from stedge.stgraph import effective_resistances
from stedge.trainer import TrainConfig, save_checkpoint
from stedge.synth import linear_records, write_overfit_scenes, write_trajectory_file
from test_model import _count_eigensolves

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
    cfg = parse_config_text("")
    assert cfg == Config()
    assert cfg.model.t_obs == 8
    assert cfg.train.batch_size == 128
    assert cfg.train.eval_samples == 20


def test_unknown_key_is_named():
    # a misspelt key, and a removed one: features read the observed track only
    for key in ("patch.lenght", "preprocess.endpoint_mode"):
        with pytest.raises(BadConfigError, match=f"unknown config key '{key}'"):
            parse_config_text(f"{key} = 3\n")


def test_bad_value_is_named():
    with pytest.raises(BadConfigError, match="train.epochs"):
        parse_config_text("train.epochs = -2\n")
    for gate in ("open", "scalar"):
        with pytest.raises(BadConfigError, match="fusion.gate"):
            parse_config_text(f"fusion.gate = {gate}\n")


def test_cross_validation():
    with pytest.raises(BadConfigError, match="patch.len"):
        parse_config_text("patch.len = 9\n")
    with pytest.raises(BadConfigError, match="encoder.dim"):
        parse_config_text("encoder.dim = 10\nencoder.heads = 4\n")


def test_config_comments_and_spacing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n  seed = 7   # inline\n\npatch.len=2\n")
    cfg = load_config(path)
    assert cfg.train.seed == 7
    assert cfg.model.patch_len == 2


def test_model_and_train_config_builders():
    cfg = parse_config_text("graph.max_distance = 2.5\ntrain.base_lr = 0.01\n")
    assert cfg.model.max_distance == 2.5
    assert cfg.train.base_lr == 0.01
    assert Config().model.max_distance is None


def test_a_parsed_config_is_frozen():
    cfg = parse_config_text("data.path = scenes\nencoder.heads = 2\n")
    for owner, name, value in ((cfg, "data_path", "other"),
                               (cfg, "model", ModelConfig()),
                               (cfg.model, "encoder_heads", 0),
                               (cfg.train, "seed", 1)):
        with pytest.raises(FrozenInstanceError):
            setattr(owner, name, value)
    assert cfg.data_path == "scenes" and cfg.model.encoder_heads == 2


# The config-key block of ``stedge --help``, kept as text so that a changed
# default or help line shows up here.
CONFIG_HELP = """\
config keys (key = value per line, '#' comments):
  data.path                    default ''           trajectory file, or directory of *.txt files
  data.t_obs                   default 8            observed samples per window
  data.t_pred                  default 12           predicted samples per window
  patch.len                    default 3            temporal patch length L
  patch.stride                 default 1            temporal patch stride S
  graph.max_distance           default 0.0          cross-pedestrian link range; 0 = complete graph
  model.dim                    default 128          node/edge embedding width
  encoder.dim                  default 256          encoder hidden width
  encoder.heads                default 4            attention heads
  encoder.layers               default 2            encoder layers
  hll.order                    default 3            Laguerre polynomial order J
  fusion.gate                  default 'vector'     edge-gate mode; 'zero' severs the edge branch
  train.epochs                 default 100          training epochs
  train.batch_size             default 128          windows per optimizer step
  train.base_lr                default 0.001        initial learning rate
  train.lr_halve_every         default 50           epochs between halvings
  train.weight_decay           default 0.0001       decoupled weight decay
  train.augment                default 'off'        training-window augmentation
  train.out_dir                default 'runs'       checkpoint / metrics directory
  eval.samples                 default 20           samples per window at evaluation
  seed                         default 0            master seed for init/batching/sampling"""


def test_every_setting_is_reached_by_exactly_one_key():
    reached = [(owner, field) for owner, field, _ in CONFIG_KEYS.values()]
    declared = [(owner, f.name) for owner in (ModelConfig, TrainConfig)
                for f in fields(owner)]
    declared += [(Config, "data_path"), (Config, "out_dir")]
    assert sorted(reached, key=repr) == sorted(declared, key=repr)
    assert parse_config_text("").model == ModelConfig()
    assert parse_config_text("").train == TrainConfig()


def test_config_help_block_is_unchanged():
    assert config_help() == CONFIG_HELP
    assert CONFIG_HELP in build_parser().format_help()


def test_settings_are_blamed_on_the_lines_that_set_them():
    with pytest.raises(BadConfigError,
                       match="run.cfg:2: bad value for 'encoder.heads'"):
        parse_config_text("seed = 1\nencoder.heads = 0\n", "run.cfg")
    with pytest.raises(BadConfigError, match="run.cfg:3: conflicting values "
                       "for 'data.t_obs' and 'patch.len'"):
        parse_config_text("data.t_obs = 10\nseed = 1\npatch.len = 11\n",
                          "run.cfg")
    for text in ("data.t_obs = 10\npatch.len = 9\n",
                 "patch.len = 9\ndata.t_obs = 10\n"):
        assert parse_config_text(text).model.n_patches == 2


# -- subcommands ----------------------------------------------------------------


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    for key in ("patch.lenght", "preprocess.endpoint_mode"):
        cfg = _config_file(tmp_path, f"{key} = 3\n")
        assert run(["graph-stats", "--config", str(cfg)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_graph_stats_reports_windows(tmp_path, capsys):
    scene = _scene_file(tmp_path, n_frames=21)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    # slots 0 and 5 are both observed, but no patch of length 3 covers both
    code = run(["graph-stats", "--config", str(cfg), "--edges",
                "--pair", "1,0,2,0", "--pair", "1,0,2,5"])
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
    # a covered pair resolved in every covering patch; an uncovered pair absent
    pairs_seen = {tuple(map(tuple, r["pair"])) for r in report["resistance"]}
    assert ((1, 0), (2, 0)) in pairs_seen
    assert ((1, 0), (2, 5)) not in pairs_seen
    values = [r["resistance"] for r in report["resistance"]]
    assert all(v is not None and v > 0 for v in values)


@pytest.mark.parametrize("pair", ["1,9,2,1", "1,-1,2,0", "1,0,2,8"])
def test_graph_stats_pair_outside_the_observed_slots_exits_2(tmp_path, capsys, pair):
    # data.t_obs = 8: a slot outside [0, 8) lies in no patch of any window
    scene = _scene_file(tmp_path, n_frames=21)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    assert run(["graph-stats", "--config", str(cfg), "--pair", pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--pair {pair!r}" in captured.err and "[0, 8)" in captured.err


@pytest.mark.parametrize("pair", ["1,0,7,0", "7,0,2,1"])
def test_graph_stats_pair_naming_a_pedestrian_no_window_holds_exits_2(
        tmp_path, capsys, pair):
    # the scene holds pedestrians 1 and 2 only: no window could report the pair
    scene = _scene_file(tmp_path, n_frames=21)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    assert run(["graph-stats", "--config", str(cfg), "--pair", pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pedestrian 7" in captured.err


def test_graph_stats_skips_a_pair_in_a_window_that_lacks_its_pedestrian(tmp_path, capsys):
    # pedestrian 3 walks the first 20 frames only: the first window holds
    # it, the second (frames 1-20) does not
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)), (2, (0.0, 1.0), (0.4, 0.1))],
                             n_frames=21)
    records += linear_records([(3, (0.0, 2.0), (0.4, 0.0))], n_frames=20)
    scene = write_trajectory_file(tmp_path / "scene.txt", records)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    assert run(["graph-stats", "--config", str(cfg), "--pair", "1,0,3,0"]) == 0
    first, second = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert 3 in first["ped_ids"] and first["resistance"]
    assert 3 not in second["ped_ids"] and second["resistance"] == []


def test_config_with_a_utf8_byte_order_mark_loads(tmp_path):
    plain = _config_file(tmp_path, "seed = 3\n")
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_config(marked) == load_config(plain)
    assert load_config(marked).train.seed == 3


def test_graph_stats_edge_counts_do_not_depend_on_edges_flag(tmp_path, capsys):
    """Edges are counted without building B1; the report without
    ``--edges`` is the ``--edges`` report less its two keys, byte for byte,
    on a scene where ``max_distance`` drops some pairs."""
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)),
                              (2, (0.0, 1.0), (0.4, 0.1)),
                              (3, (4.0, 0.0), (-0.3, 0.05))], n_frames=20)
    scene = write_trajectory_file(tmp_path / "scene.txt", records)
    cfg = _config_file(tmp_path, f"data.path = {scene}\ngraph.max_distance = 1.5\n")
    assert run(["graph-stats", "--config", str(cfg), "--edges"]) == 0
    with_edges = capsys.readouterr().out.splitlines()
    assert run(["graph-stats", "--config", str(cfg)]) == 0
    without = capsys.readouterr().out.splitlines()
    assert len(without) == len(with_edges) == 1
    report = json.loads(with_edges[0])
    counts = [patch["edges"] for patch in report["patches"]]
    assert min(counts) < max(counts) < 9 * 8 // 2   # thresholded, not complete
    for patch in report["patches"]:
        assert len(patch["l1_spectrum"]) == patch["edges"]   # one per B1 column
        del patch["degree_histogram"], patch["l1_spectrum"]
    assert without[0] == json.dumps(report, sort_keys=True)


def test_graph_stats_takes_one_pseudoinverse_per_covering_patch(
        tmp_path, capsys, monkeypatch):
    """Every requested pair a patch covers is read off one
    eigendecomposition of that patch, and the report is byte for byte the
    one that an eigendecomposition per pair gives, disconnected pairs
    (null) included."""
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)),
                              (2, (0.0, 1.0), (0.4, 0.1)),
                              (3, (4.0, 0.0), (-0.3, 0.05))], n_frames=21)
    scene = write_trajectory_file(tmp_path / "scene.txt", records)
    cfg = _config_file(tmp_path, f"data.path = {scene}\ngraph.max_distance = 1.5\n")
    argv = ["graph-stats", "--config", str(cfg)]
    for pair in ("1,2,2,2", "1,1,2,3", "1,2,1,3", "1,0,3,0", "1,6,3,7", "1,0,2,5"):
        argv += ["--pair", pair]
    calls = []
    spectrum = stedge.stgraph.laplacian_spectrum
    monkeypatch.setattr(stedge.stgraph, "laplacian_spectrum",
                        lambda a, vectors=False:
                        calls.append(len(a)) or spectrum(a, vectors))
    assert run(argv) == 0
    out = capsys.readouterr().out
    entries = [(report["window"], r) for report in map(json.loads, out.splitlines())
               for r in report["resistance"]]
    assert any(r["resistance"] is None for _, r in entries)
    resolved = [(w, r["k"]) for w, r in entries if r["resistance"] is not None]
    assert len(calls) == len(set(resolved)) < len(resolved)

    calls.clear()
    monkeypatch.setattr(stedge.cli, "effective_resistances", lambda adj, nodes: [
        effective_resistances(adj, [pair])[0] for pair in nodes])
    assert run(argv) == 0
    assert capsys.readouterr().out == out
    assert len(calls) == len(entries)


def test_graph_stats_takes_at_most_one_eigensolve_of_each_kind_per_patch(
        tmp_path, capsys, monkeypatch):
    """L1's spectrum needs the eigenvalues of each patch, the resistances
    of the pairs it covers its eigenvectors too: one eigvalsh per patch,
    and one eigh per patch that covers a pair."""
    records = linear_records([(1, (0.0, 0.0), (0.4, 0.0)),
                              (2, (0.0, 1.0), (0.4, 0.1)),
                              (3, (4.0, 0.0), (-0.3, 0.05))], n_frames=21)
    scene = write_trajectory_file(tmp_path / "scene.txt", records)
    cfg = _config_file(tmp_path, f"data.path = {scene}\ngraph.max_distance = 1.5\n")
    argv = ["graph-stats", "--config", str(cfg), "--edges"]
    for pair in ("1,2,2,2", "1,1,2,3", "1,2,1,3", "1,0,3,0", "1,6,3,7"):
        argv += ["--pair", pair]
    calls = _count_eigensolves(monkeypatch)
    assert run(argv) == 0
    reports = list(map(json.loads, capsys.readouterr().out.splitlines()))
    patches = sum(len(report["patches"]) for report in reports)
    covering = len({(report["window"], r["k"]) for report in reports
                    for r in report["resistance"]})
    assert calls == {"eigh": covering, "eigvalsh": patches}
    assert 0 < covering < patches


def test_graph_stats_edges_on_20_walkers_stays_small(tmp_path, capsys):
    """L1's spectrum and the line-graph degrees come from the 60-node
    patch graph; no (1770, 1770) array is built.  Its zeros are exact, so
    the report holds no -0.0."""
    walkers = [(i, (0.5 * i, 0.0), (0.1, 0.02 * i)) for i in range(20)]
    scene = write_trajectory_file(tmp_path / "scene.txt",
                                  linear_records(walkers, n_frames=20))
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    tracemalloc.start()
    try:
        code = run(["graph-stats", "--config", str(cfg), "--edges"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2 ** 20
    out = capsys.readouterr().out
    assert "-0.0" not in out
    (report,) = map(json.loads, out.splitlines())
    for patch in report["patches"]:
        assert patch["edges"] == 60 * 59 // 2
        assert patch["degree_histogram"] == {"116": 1770}
        assert patch["l1_spectrum"] == [0.0] * (1770 - 59) + [60.0] * 59


def test_eval_oracle_is_a_usage_error(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--config", str(cfg), "--oracle"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --oracle" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfeseed = 1\n")
    assert run(["graph-stats", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read config {cfg}" in err and "utf-8" in err


def test_scalar_fusion_gate_exits_2_naming_the_key(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\nfusion.gate = scalar\n")
    assert run(["graph-stats", "--config", str(cfg)]) == 2
    assert f"{cfg}:9: bad value for 'fusion.gate'" in capsys.readouterr().err


def test_a_key_set_twice_exits_2_naming_both_lines(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  "fusion.gate = scalar\nfusion.gate = vector\n"))
    assert run(["graph-stats", "--config", str(cfg)]) == 2
    assert (f"{cfg}:10: 'fusion.gate' is set again; line 9 already sets it"
            in capsys.readouterr().err)


def test_eval_without_checkpoint_fails(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["eval", "--config", str(cfg)])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("given", [False, True], ids=["no-flag", "missing-file"])
def test_checkpoint_is_checked_before_parameters_are_drawn(tmp_path, capsys,
                                                           monkeypatch, command, given):
    """A draw at a large model.dim can exhaust memory, so a missing
    checkpoint must fail first, naming it."""
    def refuse(*args, **kwargs):
        raise AssertionError("parameters drawn before the checkpoint was checked")

    monkeypatch.setattr(stedge.model, "init_parameters", refuse)
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    ckpt = tmp_path / "absent.bin"
    argv = [command, "--config", str(cfg)] + (["--checkpoint", str(ckpt)] if given else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert (f"checkpoint {ckpt} does not exist" if given
            else "no checkpoint given (--checkpoint)") in err


def test_eval_with_corrupt_checkpoint_fails(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    ckpt = tmp_path / "short.bin"
    ckpt.write_bytes(b"STEDGECKPT\x01\x00")
    code = run(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "truncated" in err


def test_nan_max_distance_exits_2_naming_the_key(tmp_path, capsys):
    # graph-stats and the model used to read NaN differently (no
    # cross-pedestrian edge against the complete graph)
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\ngraph.max_distance = nan\n")
    assert run(["graph-stats", "--config", str(cfg)]) == 2
    assert f"{cfg}:9: bad value for 'graph.max_distance'" in capsys.readouterr().err


def test_eval_checkpoint_directory_exits_1_naming_it(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    assert run(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_predict_out_directory_exits_1_naming_it(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    ckpt = tmp_path / "checkpoint.bin"
    model = TrajectoryForecaster(load_config(cfg).model)
    save_checkpoint(ckpt, model.params)
    out = tmp_path / "out"
    out.mkdir()
    assert run(["predict", "--config", str(cfg), "--checkpoint", str(ckpt),
                "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err


def test_train_out_dir_that_is_a_file_exits_1_naming_it(tmp_path, capsys):
    scene = _scene_file(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  f"train.out_dir = {taken}\n"
                                  "train.epochs = 1\n"))
    assert run(["train", "--config", str(cfg)]) == 1
    assert str(taken) in capsys.readouterr().err


def test_non_finite_coordinate_exits_with_line(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("0 1 0 0\n10 1 nan 0\n", encoding="utf-8")
    cfg = _config_file(tmp_path, f"data.path = {scene}\n")
    code = run(["graph-stats", "--config", str(cfg)])
    assert code == 1
    assert f"{scene}:2" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_forward_exits_3_naming_the_op(tmp_path, capsys):
    # walking-scale coordinates; a 1e300 learning rate makes the first
    # optimizer step throw the parameters so far that the next forward
    # overflows
    scene = _scene_file(tmp_path)
    out_dir = tmp_path / "run"
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  f"train.out_dir = {out_dir}\n"
                                  "train.epochs = 2\n"
                                  "train.base_lr = 1e300\n"))
    code = run(["train", "--config", str(cfg)])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite forward" in err and "op '" in err


def test_window_over_the_tape_budget_exits_1_naming_n(tmp_path, capsys, monkeypatch):
    # the budget is lowered; nothing is allocated up to the machine's limit
    monkeypatch.setattr(stedge.model, "TAPE_BUDGET_BYTES", 2**16)
    scene = _scene_file(tmp_path)
    cfg = _config_file(tmp_path, (f"data.path = {scene}\n"
                                  f"train.out_dir = {tmp_path / 'run'}\n"
                                  "train.epochs = 1\n"))
    assert run(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a window of N=2 pedestrians needs an estimated")
    assert "MiB of physical memory" in err and "Traceback" not in err


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
    # narrower than criterion 5's widths, which check the same gradients
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.dim = 2\nencoder.dim = 4\nencoder.heads = 1\n"
                   "encoder.layers = 1\n", encoding="utf-8")
    code = run(["gradcheck", "--config", str(cfg)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["max_rel_err"] < 1e-4


def _no_window_config(tmp_path):
    """A config whose only scene is 10 frames long, half a window."""
    scene = _scene_file(tmp_path, n_frames=10)
    return scene, _config_file(tmp_path, (f"data.path = {scene}\n"
                                          f"train.out_dir = {tmp_path / 'run'}\n"
                                          "train.epochs = 1\n"))


@pytest.mark.parametrize("argv", [["eval"], ["predict"], ["graph-stats"],
                                  ["gradcheck"], ["train"]])
def test_data_with_no_window_exits_1_naming_the_file(tmp_path, capsys, argv):
    scene, cfg = _no_window_config(tmp_path)
    ckpt = tmp_path / "checkpoint.bin"
    save_checkpoint(ckpt, TrajectoryForecaster(load_config(cfg).model).params)
    if argv[0] in ("eval", "predict"):
        argv = argv + ["--checkpoint", str(ckpt)]
    assert run([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {scene}: no window of t_obs + t_pred = 20 samples" in captured.err
    assert not (tmp_path / "run").exists()


def test_train_leave_out_with_no_held_out_window_writes_no_checkpoint(
        tmp_path, capsys):
    data_dir = tmp_path / "data"
    write_overfit_scenes(data_dir)
    short = write_trajectory_file(
        data_dir / "short.txt",
        linear_records([(1, (0.0, 0.0), (0.4, 0.0))], n_frames=10))
    out_dir = tmp_path / "run"
    cfg = _config_file(tmp_path, (f"data.path = {data_dir}\n"
                                  f"train.out_dir = {out_dir}\n"
                                  "train.epochs = 1\n"))
    assert run(["train", "--config", str(cfg), "--leave-out", "short"]) == 1
    assert str(short) in capsys.readouterr().err
    assert not (out_dir / "checkpoint.bin").exists()


def test_missing_data_path(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    code = run(["graph-stats", "--config", str(cfg)])
    assert code == 2
    assert "data.path" in capsys.readouterr().err

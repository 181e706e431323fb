"""Command line interface: every subcommand exercised in-process."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrlab import cli, training
from ultrlab.autodiff import load_params
from ultrlab.causal import ToyCausalModel, overestimation_report
from ultrlab.cli import main
from ultrlab.clicks import SimulationConfig
from ultrlab.data import parse_svmlight, serialize_svmlight
from ultrlab.ranker import RankerMLP
from ultrlab.training import (
    CURVE_COLUMNS,
    DatasetView,
    ExperimentConfig,
    evaluate_ranker,
    make_split_data,
)

TINY = ["--set", "total_steps=10", "--set", "eval_every=5",
        "--set", "refresh_interval=10", "--set", "batch_queries=4",
        "--set", "weak_fraction=0.5", "--set", "probe_docs=20",
        "--set", "ranker_hidden=[8,6]", "--set", "lpp_embed_dim=4",
        "--set", "lpp_encoder_hidden=[6]", "--set", "lpp_ffn_hidden=[5]"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen-data", "--out", str(out), "--train-queries", "8",
               "--test-queries", "4", "--docs", "5", "--features", "5",
               "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--out", str(out), "--data", str(data_dir),
               "--algorithm", "naive", "--paradigm", "Off",
               "--seed", "0..1"] + TINY)
    assert rc == 0
    return out


def test_gen_data_files_parse_and_repeat(data_dir, tmp_path):
    train_text = (data_dir / "train.txt").read_text()
    ds = parse_svmlight(train_text)
    assert ds.n_queries == 8 and ds.feature_dim == 5
    assert parse_svmlight((data_dir / "test.txt").read_text()).n_queries == 4
    again = tmp_path / "again"
    assert main(["gen-data", "--out", str(again), "--train-queries", "8",
                 "--test-queries", "4", "--docs", "5", "--features", "5",
                 "--seed", "3"]) == 0
    assert (again / "train.txt").read_text() == train_text
    # The split seeds have one owner: gen-data writes what make_split_data builds.
    split = make_split_data(8, 4, 5, 5, 3)
    for name, ds in (("train.txt", split.train), ("test.txt", split.test)):
        assert (data_dir / name).read_bytes() == serialize_svmlight(ds).encode()


def test_gen_data_without_size_flags_writes_make_split_data_defaults(tmp_path):
    """gen-data restates none of make_split_data's sizes or its seed."""
    assert main(["gen-data", "--out", str(tmp_path)]) == 0
    split = make_split_data()
    for name, ds in (("train.txt", split.train), ("test.txt", split.test)):
        assert (tmp_path / name).read_bytes() == serialize_svmlight(ds).encode()


def test_train_writes_manifest_and_artifacts(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    # Each value has one owner: the run seeds are config.seed and seeds, nothing else.
    assert set(manifest) == {"artifact_version", "config", "seeds", "data", "curve",
                             "results", "wall_clock_s"}
    assert manifest["seeds"] == [0, 1]
    assert manifest["config"]["algorithm"] == "naive"
    assert manifest["config"]["total_steps"] == 10
    for seed in (0, 1):
        entry = manifest["results"][str(seed)]
        for key in ("curves", "model", "propensity"):
            assert (run_dir / entry[key]).exists()
        assert "ndcg@10" in entry["final_metrics"]
    header = (run_dir / "curves_seed0.csv").read_text().splitlines()[0]
    assert header == ",".join(CURVE_COLUMNS)
    assert manifest["curve"] is None


def test_manifest_records_the_data_directory_relative_to_the_output(run_dir, data_dir):
    """The manifest's bytes must not depend on where the directories live."""
    recorded = json.loads((run_dir / "manifest.json").read_text())["data"]
    assert not Path(recorded).is_absolute()
    assert (run_dir / recorded).resolve() == data_dir.resolve()


def test_train_rerun_is_byte_identical(run_dir, data_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["train", "--out", str(again), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seed", "0..1"] + TINY) == 0
    for seed in (0, 1):
        name = f"curves_seed{seed}.csv"
        assert (again / name).read_bytes() == (run_dir / name).read_bytes()


def test_manifest_config_reruns_identically(run_dir, data_dir, tmp_path):
    """The manifest's embedded config is a complete, replayable record."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(manifest["config"]))
    replay = tmp_path / "replay"
    assert main(["train", "--out", str(replay), "--data", str(data_dir),
                 "--config", str(cfg_path)]) == 0
    assert (replay / "curves_seed0.csv").read_bytes() == \
        (run_dir / "curves_seed0.csv").read_bytes()


def test_manifest_replays_a_run_with_a_curve_file(data_dir, tmp_path):
    """The manifest records --curve relative to --out, as it records --data,
    so its config, data and curve alone rerun the curves byte for byte."""
    curve = tmp_path / "curve.txt"
    curve.write_text("1.0\n0.6  # rank 2\n\n0.45\n0.3\n0.2\n")
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--data", str(data_dir), "--curve", str(curve),
                 "--algorithm", "ipw_oracle"] + TINY) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert not Path(manifest["curve"]).is_absolute()
    cfg_path = tmp_path / "replay.json"
    cfg_path.write_text(json.dumps(manifest["config"]))
    replay = tmp_path / "replay"
    assert main(["train", "--out", str(replay), "--config", str(cfg_path),
                 "--data", str(out / manifest["data"]),
                 "--curve", str(out / manifest["curve"])]) == 0
    curves = (out / "curves_seed0.csv").read_bytes()
    assert (replay / "curves_seed0.csv").read_bytes() == curves
    # The curve reaches the run: without it the same config writes other bytes.
    plain = tmp_path / "plain"
    assert main(["train", "--out", str(plain), "--config", str(cfg_path),
                 "--data", str(data_dir)]) == 0
    assert (plain / "curves_seed0.csv").read_bytes() != curves


def test_sparse_splits_of_unequal_width_train_and_eval(data_dir, tmp_path):
    """Feature 5 is zero on every test line, so those lines omit it; the
    test split parses 4 wide and is padded with a zero column to 5."""
    sparse = tmp_path / "sparse"
    sparse.mkdir()
    (sparse / "train.txt").write_text((data_dir / "train.txt").read_text())
    test_lines = [" ".join(tok for tok in line.split(" ") if not tok.startswith("5:"))
                  for line in (data_dir / "test.txt").read_text().splitlines()]
    (sparse / "test.txt").write_text("\n".join(test_lines) + "\n")
    assert parse_svmlight((sparse / "test.txt").read_text()).feature_dim == 4
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--data", str(sparse)] + TINY) == 0
    assert main(["eval", "--model", str(out / "model_seed0.npz"),
                 "--data", str(sparse)]) == 0


@pytest.mark.parametrize("train_file", ["deleted", "garbled"])
def test_eval_reads_only_the_split_it_scores(run_dir, data_dir, tmp_path, capsys, train_file):
    """``eval --split test`` prints the same metrics when train.txt is gone or
    unparseable: the snapshot's ranker.l0.W, not the train split, gives the width."""
    model = str(run_dir / "model_seed0.npz")
    assert main(["eval", "--model", model, "--data", str(data_dir), "--split", "test"]) == 0
    want = capsys.readouterr().out
    other = tmp_path / "other"
    other.mkdir()
    (other / "test.txt").write_text((data_dir / "test.txt").read_text())
    if train_file == "garbled":
        (other / "train.txt").write_text("x qid:1 1:bad\n")
    assert main(["eval", "--model", model, "--data", str(other), "--split", "test"]) == 0
    assert capsys.readouterr().out == want


def test_load_split_copies_only_the_split_it_pads(data_dir, tmp_path, monkeypatch):
    """Splits of one width keep the parser's feature arrays; a narrower split
    is padded with zero columns, its own columns bit for bit."""
    parsed = []

    def parse(text):
        ds = parse_svmlight(text)
        parsed.append(ds.features)
        return ds

    monkeypatch.setattr(cli, "parse_svmlight", parse)
    data = cli._load_split(data_dir)
    assert data.train.features is parsed[0] and data.test.features is parsed[1]
    parsed.clear()
    sparse = _split_dir(tmp_path, data_dir, "test.txt", lambda lines: [
        " ".join(tok for tok in line.split(" ") if not tok.startswith("5:")) for line in lines])
    data = cli._load_split(sparse)
    assert data.train.features is parsed[0] and parsed[1].shape[2] == 4
    assert np.array_equal(data.test.features[..., :4].view(np.uint64), parsed[1].view(np.uint64))
    assert not data.test.features[..., 4].any()


def test_train_covers_the_full_loop(data_dir, tmp_path):
    out = tmp_path / "upe"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "upe", "--paradigm", "OnD",
                 "--seed", "4"] + TINY) == 0
    prop = (out / "propensity_seed4.csv").read_text().splitlines()
    assert prop[0] == "position,weight,normalized_weight_ref10"
    first = prop[1].split(",")
    assert int(first[0]) == 1 and float(first[1]) == 1.0


def test_eval_prints_json_metrics(run_dir, data_dir, tmp_path, capsys):
    """The snapshot alone gives the ranker's shape: TINY trained hidden=[8,6],
    and ranker_hidden=[] trains a linear scorer with one weight matrix."""
    linear = tmp_path / "linear"
    assert main(["train", "--out", str(linear), "--data", str(data_dir),
                 "--algorithm", "naive"] + TINY + ["--set", "ranker_hidden=[]"]) == 0
    test = DatasetView(parse_svmlight((data_dir / "test.txt").read_text()))
    for model, hidden in ((run_dir / "model_seed0.npz", (8, 6)),
                          (linear / "model_seed0.npz", ())):
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data", str(data_dir), "--split", "test"])
        assert rc == 0
        metrics = json.loads(capsys.readouterr().out)
        ranker = RankerMLP(5, np.random.default_rng(1), hidden=hidden)
        load_params(model, ranker.parameters())
        assert metrics == evaluate_ranker(ranker, test)


@pytest.mark.parametrize("docs", [5, 12])
def test_norm_prop_at_1_is_one_number_across_run_artifacts(data_dir, tmp_path, docs):
    """The curve's last norm_prop@1, the manifest's final_metrics value and row
    1 of the propensity file's rank-10 column agree: the 5-doc fixture divides
    by rank 5, and 12 docs shown 10 deep divide by rank 10."""
    data = data_dir
    if docs != 5:
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--train-queries", "8",
                     "--test-queries", "4", "--docs", str(docs), "--features", "5",
                     "--seed", "3"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--data", str(data),
                 "--algorithm", "dla"] + TINY) == 0
    with open(out / "curves_seed0.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    final = json.loads((out / "manifest.json").read_text())["results"]["0"]["final_metrics"]
    prop = (out / "propensity_seed0.csv").read_text().splitlines()
    assert len(prop) == 1 + min(docs, 10)
    assert final["norm_prop@1"] != 1.0
    assert float(last["norm_prop@1"]) == final["norm_prop@1"] == float(prop[1].split(",")[2])


def test_eval_rejects_mismatched_shapes(run_dir, tmp_path):
    """A snapshot trained on 5 features cannot score 6-feature documents, and
    an archive without the ranker's parameters scores nothing."""
    wide = tmp_path / "wide"
    assert main(["gen-data", "--out", str(wide), "--train-queries", "2",
                 "--test-queries", "2", "--docs", "5", "--features", "6"]) == 0
    line = _fails_cleanly("eval", "--model", str(run_dir / "model_seed0.npz"),
                          "--data", str(wide))
    assert "ranker.l0.W" in line
    other = tmp_path / "other.npz"
    np.savez(other, foo=np.ones(3))
    line = _fails_cleanly("eval", "--model", str(other), "--data", str(wide))
    assert line == "error: snapshot missing parameter 'ranker.l0.W'"


def test_eval_without_data_pads_or_refuses_the_default_split(run_dir, tmp_path, capsys):
    """Without --data the default split meets the rule of a --data split: one
    wider than the snapshot is refused, a narrower one is padded with zeros."""
    line = _fails_cleanly("eval", "--model", str(run_dir / "model_seed0.npz"))
    assert line == ("error: default test split: 16 features, more than the 5 rows "
                    "of snapshot parameter 'ranker.l0.W'")
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--out", str(data), "--train-queries", "8",
                 "--test-queries", "4", "--docs", "5", "--features", "18"]) == 0
    assert main(["train", "--out", str(run), "--data", str(data),
                 "--algorithm", "naive", "--paradigm", "Off"] + TINY) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(run / "model_seed0.npz"), "--split", "train"]) == 0
    split = make_split_data().train
    split.features = np.pad(split.features, ((0, 0), (0, 0), (0, 2)))
    ranker = RankerMLP.from_snapshot(run / "model_seed0.npz")
    assert json.loads(capsys.readouterr().out) == evaluate_ranker(ranker, DatasetView(split))


@pytest.mark.parametrize("content", ["npy", "empty", "text", "truncated"])
def test_eval_refuses_files_that_are_not_npz(run_dir, tmp_path, content):
    model = tmp_path / "model"
    if content == "npy":
        with open(model, "wb") as fh:
            np.save(fh, np.ones((5, 8)))
    elif content == "truncated":
        snapshot = (run_dir / "model_seed0.npz").read_bytes()
        model.write_bytes(snapshot[: len(snapshot) // 2])
    else:
        model.write_text("" if content == "empty" else "1.0 2.0\n")
    assert "not an npz archive" in _fails_cleanly("eval", "--model", str(model))


@pytest.mark.parametrize("name, value", [("ranker.l0.W", np.nan), ("ranker.l2.b", np.inf)])
def test_eval_refuses_non_finite_parameters(run_dir, data_dir, tmp_path, name, value):
    """NaN scores keep the original order, so a corrupt snapshot would print
    made-up metrics; it is refused instead, naming the parameter."""
    with np.load(run_dir / "model_seed0.npz") as archive:
        params = {key: archive[key] for key in archive.files}
    params[name].flat[0] = value
    bad = tmp_path / "bad.npz"
    np.savez(bad, **params)
    line = _fails_cleanly("eval", "--model", str(bad), "--data", str(data_dir))
    assert name in line and "non-finite" in line


@pytest.mark.parametrize("flag", ["--config", "--set"])
def test_eval_takes_no_config(run_dir, flag):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(run_dir / "model_seed0.npz"), flag, "x"])
    assert exc.value.code == 2


def test_oracle_demo_prints_reference_numbers(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    rc = main(["oracle-demo", "--preset", "strong", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.509" in out
    assert csv_path.read_text() in out


@pytest.mark.bytegate
@pytest.mark.parametrize("preset, args", [
    ("strong", ["--preset", "strong"]),
    ("weak", ["--preset", "weak"]),
    ("strong_eps0.1", ["--preset", "strong", "--epsilon", "0.1"]),
])
def test_oracle_demo_csv_matches_stored_bytes(tmp_path, preset, args):
    """tests/data holds the CSVs of the oracle's earlier implementation, which
    read dict events off a validated joint table; the bytes pin its numbers."""
    csv_path = tmp_path / "report.csv"
    assert main(["oracle-demo", *args, "--csv", str(csv_path)]) == 0
    expected = (Path(__file__).parent / "data" / f"oracle_{preset}.csv").read_bytes()
    assert csv_path.read_bytes() == expected


def test_oracle_demo_weak_preset_collapses(capsys):
    assert main(["oracle-demo", "--preset", "weak"]) == 0
    out = capsys.readouterr().out
    model = ToyCausalModel.reference().with_weak_policy()
    report = overestimation_report(model)
    assert report.as_csv() in out


def test_export_curves_merges_mean_and_std(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    header = ",".join(CURVE_COLUMNS)
    tail = ",".join(["0.0"] * (len(CURVE_COLUMNS) - 7))
    for seed, ndcg in ((0, 0.5), (1, 0.7)):
        rows = [header]
        for step, bump in ((0, 0.0), (10, 0.1)):
            rows.append(f"{step},dla,{seed},0.0,0.0,0.0,{ndcg + bump},{tail}")
        (runs / f"curves_seed{seed}.csv").write_text("\n".join(rows) + "\n")
    merged = tmp_path / "merged.csv"
    assert main(["export-curves", "--runs", str(runs),
                 "--out", str(merged)]) == 0
    lines = merged.read_text().splitlines()
    cols = lines[0].split(",")
    assert cols[:3] == ["step", "algorithm", "n_seeds"]
    i = cols.index("mean_ndcg@10")
    by_step = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert by_step[0][2] == "2"
    assert float(by_step[0][i]) == pytest.approx(0.6, abs=1e-12)
    assert float(by_step[0][i + 1]) == pytest.approx(np.std([0.5, 0.7], ddof=1),
                                                     abs=1e-12)
    assert float(by_step[10][i]) == pytest.approx(0.7, abs=1e-12)


def test_export_curves_reads_train_manifest(run_dir, tmp_path):
    merged = tmp_path / "merged.csv"
    assert main(["export-curves", "--runs", str(run_dir),
                 "--out", str(merged)]) == 0
    lines = merged.read_text().splitlines()
    assert len(lines) == 1 + 3  # steps 0, 5, 10 for one algorithm
    assert all(row.split(",")[2] == "2" for row in lines[1:])


def test_export_curves_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["export-curves", "--runs", str(empty),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


FULL_HEADER = ",".join(CURVE_COLUMNS)


FULL_ROW = ",".join(["0", "upe", "0", *["0.5"] * (len(CURVE_COLUMNS) - 3)])


@pytest.mark.parametrize("files, names", [
    ({"curves_seed0.csv": "step,algorithm,seed,ndcg@1\n0,upe,0\n"},
     "curves_seed0.csv: header lacks columns"),
    ({"curves_seed0.csv": f"{FULL_HEADER}\n0,upe,0\n"},
     "curves_seed0.csv:2: row does not match"),
    ({"curves_seed0.csv": FULL_HEADER + "\n",
      "curves_seed1.csv": FULL_HEADER + "\n"}, "hold no rows"),
    ({"manifest.json": '{"results": ["curves_seed0.csv"]}',
      "curves_seed0.csv": FULL_HEADER + "\n"}, "manifest.json: results must map"),
    ({"curves_seed0.csv": f"{FULL_HEADER}\n{FULL_ROW}\nabc{FULL_ROW[1:]}\n"},
     "curves_seed0.csv:3: step: invalid literal for int() with base 10: 'abc'"),
    ({"curves_seed0.csv": f"{FULL_HEADER}\n{FULL_ROW[:-3]}x\n"},
     f"curves_seed0.csv:2: {CURVE_COLUMNS[-1]}: could not convert string to float: 'x'"),
], ids=["short-header", "ragged-row", "header-only", "manifest-results-list",
        "step-not-int", "metric-not-float"])
def test_export_curves_bad_inputs_fail_with_one_line(tmp_path, capsys, files, names):
    """Each bad input exits 1 with one error line; a cell that is not a number
    names its file, line and column."""
    runs = tmp_path / "runs"
    runs.mkdir()
    for name, text in files.items():
        (runs / name).write_text(text)
    out = tmp_path / "x.csv"
    rc = main(["export-curves", "--runs", str(runs), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err
    assert not out.exists()


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o"),
               "--set", "no_such_option=3"])
    assert rc == 1
    assert "no_such_option" in capsys.readouterr().err


def test_bad_seed_range_fails_cleanly(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o"), "--seed", "3.."])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _fails_cleanly(*argv):
    """Run the CLI on arguments it must refuse: exit 1, one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(list(argv))
    lines = err.getvalue().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def _train_fails_cleanly(out, *args):
    """Run `train` with arguments it must refuse before any seed writes output."""
    line = _fails_cleanly("train", "--out", str(out), *args)
    assert not out.exists()
    return line


@pytest.mark.parametrize("setting", ["total_steps=abc", "total_steps=true",
                                     "total_steps=2000.0", "total_steps=[2000]",
                                     "simulation.eta=true", "learning_rate=fast",
                                     "ranker_hidden=[8,-1]", "simulation=5",
                                     "simulation.eta=NaN", "simulation.eta=Infinity",
                                     "learning_rate=NaN", "learning_rate=Infinity",
                                     "tau=0", "tau=1.5", "dropout=1.0", "dropout=-0.1",
                                     "target_variant=bogus", "lpp_embed_dim=0",
                                     "lpp_embed_dim=-1", "simulation.y_max=4", "foo",
                                     "simulation=3 simulation.eta=2"])
def test_bad_config_types_fail_cleanly(tmp_path, setting):
    """Each space-separated item is one `--set`; the line names the first key."""
    line = _train_fails_cleanly(tmp_path / "o", *(arg for item in setting.split()
                                                   for arg in ("--set", item)))
    assert setting.split("=")[0].split(".")[-1] in line


def test_a_network_too_large_to_allocate_fails_cleanly(tmp_path):
    """The first weight, 16 x 1e13 float64s, is 1.28 PB: past any address space,
    so the allocation fails at once without touching memory."""
    line = _train_fails_cleanly(tmp_path / "o", "--set", "ranker_hidden=[10000000000000]")
    assert "allocate" in line


@pytest.mark.parametrize("content", ["[1, 2]", '{"simulation": 5}', "directory"],
                         ids=["top-level-list", "simulation-number", "directory"])
def test_bad_config_files_fail_cleanly(tmp_path, content):
    cfg = tmp_path / "cfg"
    if content == "directory":
        cfg.mkdir()
    else:
        cfg.write_text(content)
    _train_fails_cleanly(tmp_path / "o", "--config", str(cfg))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_bad_worker_counts_fail_cleanly(tmp_path, workers):
    line = _train_fails_cleanly(tmp_path / "o", "--workers", workers)
    assert "--workers" in line


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_unusable_output_paths_fail_cleanly(tmp_path, command):
    taken = tmp_path / "file"
    taken.write_text("")
    out = taken if command == "gen-data" else taken / "x"
    _fails_cleanly(command, "--out", str(out))
    assert taken.read_text() == ""


@pytest.mark.parametrize("bad", [["--test-queries", "0"], ["--docs", "0"]],
                         ids=["test-queries=0", "docs=0"])
def test_gen_data_bad_sizes_write_nothing(tmp_path, bad):
    out = tmp_path / "d"
    _fails_cleanly("gen-data", "--out", str(out), "--train-queries", "4", *bad)
    assert not out.exists()


def test_unknown_simulation_key_in_config_file_fails_cleanly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {"etaa": 2}}))
    assert "etaa" in _train_fails_cleanly(tmp_path / "o", "--config", str(cfg))


@pytest.mark.parametrize("flag", ["--data", "--curve"])
def test_missing_inputs_write_nothing(tmp_path, flag):
    _train_fails_cleanly(tmp_path / "o", flag, str(tmp_path / "missing"))


@pytest.mark.parametrize("text, message", [
    ("1.0\nabc\n0.5\n", "line 2: not a float: 'abc'"),
    ("1.0\n1.5\n", "line 2: curve values must lie in (0, 1]"),
    ("1.0\n\n0.0  # never examined\n", "line 3: curve values must lie in (0, 1]"),
    ("1.0\ninf\n", "line 2: curve has non-finite values"),
    ("# no values\n", "curve must be a non-empty 1-D array"),
], ids=["not-a-float", "above-one", "zero", "not-finite", "empty"])
def test_bad_curve_files_name_the_file(tmp_path, text, message):
    curve = tmp_path / "curve.txt"
    curve.write_text(text)
    line = _train_fails_cleanly(tmp_path / "o", "--curve", str(curve))
    assert line == f"error: {curve}: {message}"


def _split_dir(tmp_path, data_dir, split, edit):
    """A copy of ``data_dir`` whose ``split`` file has its lines passed through ``edit``."""
    out = tmp_path / "data"
    out.mkdir()
    for name in ("train.txt", "test.txt"):
        lines = (data_dir / name).read_text().splitlines()
        (out / name).write_text("\n".join(edit(lines) if name == split else lines) + "\n")
    return out


@pytest.mark.parametrize("split", ["train.txt", "test.txt"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_data_files_name_the_file(run_dir, data_dir, tmp_path, command, split):
    """``train`` reads both splits; ``eval`` reads the one it scores."""
    bad = _split_dir(tmp_path, data_dir, split, lambda lines: ["1 qid:1 1:x", *lines[1:]])
    if command == "train":
        line = _train_fails_cleanly(tmp_path / "o", "--data", str(bad))
    else:
        line = _fails_cleanly("eval", "--model", str(run_dir / "model_seed0.npz"),
                              "--data", str(bad), "--split", split.removesuffix(".txt"))
    assert line == f"error: {bad / split}: line 1: bad feature token '1:x'"


@pytest.mark.parametrize("fid", ["1000000000000", "99999999999999999999"],
                         ids=["past-memory", "past-int64"])
def test_a_huge_feature_id_fails_cleanly_on_its_line(data_dir, tmp_path, fid):
    """40 rows by 10**12 ids ask for 320 TB, more than a process can map, so
    numpy refuses the allocation; an id past int64 is refused as a width.
    Both refusals name the file and the line."""
    def edit(lines):
        lines[2] = lines[2].replace(" 5:", f" {fid}:")
        return lines

    bad = _split_dir(tmp_path, data_dir, "train.txt", edit)
    line = _train_fails_cleanly(tmp_path / "o", "--data", str(bad))
    assert line == (f"error: {bad / 'train.txt'}: line 3: feature id {fid} needs a "
                    f"40 x {fid} feature matrix, too large to allocate")


@pytest.fixture(scope="module")
def ten_doc_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ten")
    assert main(["gen-data", "--out", str(out), "--train-queries", "4",
                 "--test-queries", "2", "--docs", "10", "--features", "5"]) == 0
    return out


@pytest.mark.parametrize("algorithm", ["upe", "ipw_oracle"])
@pytest.mark.parametrize("eta, rank", [("310", 10), ("1e9", 2)])
def test_eta_that_underflows_the_curve_fails_cleanly(ten_doc_dir, tmp_path, algorithm, eta,
                                                     rank):
    """(1/10)**310 is subnormal and (1/2)**1e9 is 0: the line names the first bad rank."""
    line = _train_fails_cleanly(tmp_path / "o", "--data", str(ten_doc_dir),
                                "--algorithm", algorithm, *TINY,
                                "--set", f"simulation.eta={eta}")
    assert "simulation.eta" in line and line.endswith(f"rank {rank}")


def test_weak_fraction_that_samples_no_query_fails_cleanly(data_dir, tmp_path):
    _train_fails_cleanly(tmp_path / "o", "--data", str(data_dir), "--paradigm", "Off",
                         *TINY, "--set", "weak_fraction=0.001")


def test_steep_eta_still_trains(ten_doc_dir, tmp_path):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["train", "--out", str(out), "--data", str(ten_doc_dir),
                     "--algorithm", "upe", *TINY, "--set", "simulation.eta=300"]) == 0
    rows = (out / "curves_seed0.csv").read_text().splitlines()[1:]
    values = [float(cell) for row in rows for cell in row.split(",")[3:]]
    assert values and np.all(np.isfinite(values))


def test_readout_overflow_fails_cleanly_without_warnings(data_dir, tmp_path):
    """A step size that blows up the LPP head makes exp overflow in the
    backdoor readout: one error line naming it and the parameters it reads,
    and no numpy warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = _train_fails_cleanly(tmp_path / "o", "--data", str(data_dir),
                                    "--algorithm", "upe", *TINY, "--set", "learning_rate=2.5")
    assert line.startswith("error: step 2: backdoor readout: exp of log-rates [")
    assert "] read from lpp.encoder_d.*, lpp.ffn.*, lpp.encoder_p: raw weights must be " \
           "finite, got [" in line


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["gen-data", "--out", str(out), "--train-queries", "12",
                 "--test-queries", "4", "--docs", "5", "--features", "4"]) == 0
    return out


@pytest.mark.parametrize("algorithm, steps, line", [
    ("naive", 10, "step 2: loss is nan in the update of ranker.*"),
    ("ipw_oracle", 10, "step 2: loss is nan in the update of ranker.*"),
    ("dla", 10, "step 2: estimate from 'position_logits': raw weights must be positive"),
    ("upe", 10, "step 1: loss is nan in the update of lpp.encoder_p"),
    ("naive", 1, "step 1: ranker scores are not finite"),
])
def test_a_diverged_run_fails_naming_its_step_and_parameters(tiny_dir, tmp_path, algorithm,
                                                             steps, line):
    """A step size of 1e300 overflows every learner within two steps: one
    error line naming the step and what went non-finite, no numpy warning,
    no output directory and so no snapshot of NaN parameters. A run whose
    last update left its ranker finite but overflowing fails at its eval."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _train_fails_cleanly(tmp_path / "o", "--data", str(tiny_dir),
                                   "--algorithm", algorithm, "--set", "learning_rate=1e300",
                                   "--set", f"total_steps={steps}",
                                   "--set", f"refresh_interval={min(steps, 5)}",
                                   "--set", "eval_every=5", "--set", "batch_queries=4")
    assert got == f"error: {line}"


def test_a_degenerate_irw_update_fails_naming_its_phase_and_parameters(tiny_dir, tmp_path):
    """A step size of 5 spreads DLA's ranker scores past exp's range, so their
    softmax gives a first displayed document 0: the line names the IRW update,
    the position logits it moves and the ranker scores it divides by."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = _train_fails_cleanly(tmp_path / "o", "--data", str(tiny_dir), "--algorithm", "dla",
                                    "--set", "learning_rate=5", "--set", "total_steps=10",
                                    "--set", "refresh_interval=5", "--set", "eval_every=5",
                                    "--set", "batch_queries=4")
    assert line == ("error: step 2: IRW update of position_logits against the softmax of "
                    "ranker.* scores: degenerate weights: a row's first entry must be positive")


def test_readout_underflow_fails_naming_the_readout_and_its_parameters(tiny_dir, tmp_path):
    """A step size of 2 drives UPE's log-rates to about -1,800 at step 1, so
    exp underflows to 0 at some ranks: the line names the readout and the
    parameters it reads, not only the estimate's refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = _train_fails_cleanly(tmp_path / "o", "--data", str(tiny_dir), "--algorithm", "upe",
                                    "--set", "learning_rate=2", "--set", "total_steps=10",
                                    "--set", "refresh_interval=5", "--set", "eval_every=5",
                                    "--set", "batch_queries=4")
    assert line.startswith("error: step 1: backdoor readout: exp of log-rates [")
    assert line.endswith("] read from lpp.encoder_d.*, lpp.ffn.*, lpp.encoder_p: raw weights "
                         "must be positive")


WIDTHS = st.lists(st.integers(1, 6), min_size=1, max_size=2)


@settings(max_examples=100, deadline=None)
@given(algorithm=st.sampled_from(training.ALGORITHMS),
       paradigm=st.sampled_from(training.PARADIGMS),
       learning_rate=st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e),
       eta=st.floats(0.0, 500.0), tau=st.floats(0.0, 1.0, exclude_min=True),
       dropout=st.floats(0.0, 0.9), ranker_hidden=WIDTHS, lpp_embed_dim=st.integers(1, 6),
       lpp_encoder_hidden=WIDTHS, lpp_ffn_hidden=WIDTHS)
def test_every_run_ends_finite_or_fails_in_one_line(tiny_dir, tmp_path_factory, algorithm,
                                                    paradigm, eta, **overrides):
    """Any step size from 1e-320 to 1e300, with any click steepness, variance
    floor, dropout and widths: a 10-step run either exits 0 with a finite
    snapshot, curves and propensities, or exits 1 with one `error:` line,
    no numpy warning and no output directory."""
    out = tmp_path_factory.mktemp("any") / "o"
    argv = ["train", "--out", str(out), "--data", str(tiny_dir), "--algorithm", algorithm,
            "--paradigm", paradigm, "--set", f"simulation.eta={eta!r}"]
    for key, value in {"total_steps": 10, "refresh_interval": 5, "eval_every": 5,
                       "batch_queries": 4, "probe_docs": 20, "weak_fraction": 0.5,
                       **overrides}.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert [str(w.message) for w in caught] == []
    if rc == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ") and not out.exists(), lines
        return
    assert rc == 0 and lines == []
    with np.load(out / "model_seed0.npz") as model:
        assert all(np.isfinite(model[name]).all() for name in model.files)
    for name, first in (("curves_seed0.csv", 3), ("propensity_seed0.csv", 0)):
        rows = (out / name).read_text().splitlines()[1:]
        assert rows and np.isfinite([float(c) for r in rows for c in r.split(",")[first:]]).all()


@pytest.mark.parametrize("seeds", ["4..0", "", "..", "0..", "a..2", "0..1.5"])
def test_reversed_empty_and_non_integer_seed_ranges_fail_cleanly(tmp_path, seeds):
    line = _train_fails_cleanly(tmp_path / "o", "--seed", seeds)
    assert "--seed" in line


@pytest.mark.parametrize("source", ["set", "file"])
def test_config_seed_picks_the_run(data_dir, tmp_path, source):
    """Without --seed the config's seed is the run's seed."""
    out = tmp_path / "run"
    args = ["train", "--out", str(out), "--data", str(data_dir),
            "--algorithm", "naive", "--paradigm", "Off"] + TINY
    if source == "set":
        args += ["--set", "seed=5"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5}')
        args += ["--config", str(cfg)]
    assert main(args) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5 and manifest["seeds"] == [5]
    assert (out / "curves_seed5.csv").exists()
    assert not (out / "curves_seed0.csv").exists()


def test_seed_flag_overrides_config_seed(data_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seed", "2", "--set", "seed=5"] + TINY) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 2 and manifest["seeds"] == [2]
    assert sorted(p.name for p in out.glob("curves_seed*.csv")) == ["curves_seed2.csv"]


def test_worker_pool_writes_the_serial_bytes(run_dir, data_dir, tmp_path):
    """Seeds trained in two worker processes write the curves of one process."""
    pooled = tmp_path / "pooled"
    assert main(["train", "--out", str(pooled), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seed", "0..1", "--workers", "2"] + TINY) == 0
    for seed in (0, 1):
        name = f"curves_seed{seed}.csv"
        assert (pooled / name).read_bytes() == (run_dir / name).read_bytes()


def test_worker_pool_is_no_larger_than_the_seed_count(run_dir, data_dir, tmp_path,
                                                      monkeypatch):
    """A pool forks all its workers at the first submit, so ``--workers 1000``
    over two seeds asks for two. A fake pool records the request and maps the
    jobs in this process; no process is started."""
    import concurrent.futures

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "wide"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seed", "0..1", "--workers", "1000"] + TINY) == 0
    assert requested == [2]
    for seed in (0, 1):
        name = f"curves_seed{seed}.csv"
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


def test_importing_the_cli_loads_no_process_pool():
    """The pool's modules load only for a --workers run, not on import."""
    pool_modules = ("concurrent.futures.process", "multiprocessing", "socket", "logging")
    code = ("import json, sys, ultrlab.cli; "
            f"print(json.dumps([m for m in {pool_modules!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == []


def test_single_seed_range(data_dir, tmp_path):
    out = tmp_path / "one"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seed", "3..3"] + TINY) == 0
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [3]


def test_seed_and_its_one_seed_range_write_the_same_bytes(data_dir, tmp_path):
    for seed in ("3", "3..3"):
        assert main(["train", "--out", str(tmp_path / seed), "--data", str(data_dir),
                     "--algorithm", "upe", "--seed", seed] + TINY) == 0
    for name in ("curves_seed3.csv", "propensity_seed3.csv"):
        assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "3..3" / name).read_bytes()


def test_a_run_past_physical_memory_is_refused_before_it_allocates(data_dir, tmp_path,
                                                                   monkeypatch):
    """The memory figure is patched down, so the refusal is tested on a tiny run."""
    def build(*args):
        raise AssertionError("a refused run built its learner")

    monkeypatch.setattr(training, "_physical_memory", lambda: 1000)
    monkeypatch.setattr(training, "_build_learner", build)
    line = _train_fails_cleanly(tmp_path / "o", "--data", str(data_dir),
                                "--algorithm", "upe", *TINY)
    assert line.endswith("GiB of physical memory")


def _parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _decodes_to_int(text):
    try:
        value = json.loads(text)
    except ValueError:
        return False
    return isinstance(value, int) and not isinstance(value, bool)


# Only invalid values: a valid one would start a full-length run.
_bad_seeds = st.one_of(
    st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)).map(
        lambda t: f"{t[0] + t[1]}..{t[0]}"),
    st.text().filter(lambda s: ".." not in s and not _parses_as_int(s)),
    st.tuples(st.integers(0, 9), st.sampled_from(["x", "1.0", "", "-", "e3"])).map(
        lambda t: f"{t[0]}..{t[1]}"),
)
_bad_steps = st.one_of(
    st.integers(max_value=0).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "null", "[]", "{}", '"250"', "[250]"]),
    st.text().filter(lambda s: not _decodes_to_int(s)),
)


@settings(max_examples=60, deadline=None)
@given(seeds=st.one_of(st.none(), _bad_seeds), steps=st.one_of(st.none(), _bad_steps))
def test_fuzzed_bad_seeds_and_steps_fail_cleanly(tmp_path_factory, seeds, steps):
    if seeds is None and steps is None:
        steps = "abc"
    args = [] if seeds is None else [f"--seed={seeds}"]  # a value may start with "-"
    args += [] if steps is None else ["--set", f"total_steps={steps}"]
    _train_fails_cleanly(tmp_path_factory.getbasetemp() / "never-written", *args)


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--frobnicate"])
    assert exc.value.code == 2


# Every settable config value, as `--set` spells it.
_CONFIG_KEYS = [f.name for f in fields(ExperimentConfig) if f.name != "simulation"] + \
    [f"simulation.{f.name}" for f in fields(SimulationConfig)]
_JSON_LITERALS = ["0", "1", "2", "-1", "-7", "0.5", "2.5", "-0.3", "1e9", "NaN", "Infinity",
                  "-Infinity", "true", "false", "null", '"abc"', "abc", '""', "Off", "dcg",
                  "[]", "[0]", "[3]", "[2,2]", "{}"]


def test_config_keys_cover_every_setting():
    assert len(_CONFIG_KEYS) == 21


@settings(max_examples=500, deadline=None)
@given(key=st.sampled_from(_CONFIG_KEYS), value=st.sampled_from(_JSON_LITERALS))
def test_fuzzed_config_values_exit_cleanly(tmp_path_factory, data_dir, key, value):
    """Any value for any key either trains or is refused with one `error:` line."""
    out = tmp_path_factory.mktemp("fuzz")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["train", "--out", str(out / "run"), "--data", str(data_dir),
                   "--algorithm", "upe", *TINY, "--set", f"{key}={value}"])
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

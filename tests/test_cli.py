"""Command line interface: every subcommand exercised in-process."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrlab.causal import ToyCausalModel, overestimation_report
from ultrlab.cli import main
from ultrlab.data import parse_svmlight
from ultrlab.training import CURVE_COLUMNS

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
               "--seeds", "0..1"] + TINY)
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


def test_train_writes_manifest_and_artifacts(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
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


def test_manifest_records_the_data_directory_relative_to_the_output(run_dir, data_dir):
    """The manifest's bytes must not depend on where the directories live."""
    recorded = json.loads((run_dir / "manifest.json").read_text())["data"]
    assert not Path(recorded).is_absolute()
    assert (run_dir / recorded).resolve() == data_dir.resolve()


def test_train_rerun_is_byte_identical(run_dir, data_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["train", "--out", str(again), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seeds", "0..1"] + TINY) == 0
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


def test_train_covers_the_full_loop(data_dir, tmp_path):
    out = tmp_path / "upe"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "upe", "--paradigm", "OnD",
                 "--seed", "4"] + TINY) == 0
    prop = (out / "propensity_seed4.csv").read_text().splitlines()
    assert prop[0] == "position,weight,normalized_weight_ref10"
    first = prop[1].split(",")
    assert int(first[0]) == 1 and float(first[1]) == 1.0


def test_eval_prints_json_metrics(run_dir, data_dir, capsys):
    rc = main(["eval", "--model", str(run_dir / "model_seed0.npz"),
               "--data", str(data_dir), "--split", "test",
               "--set", "ranker_hidden=[8,6]"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["ndcg@10"] <= 1.0
    assert set(metrics) >= {"ndcg@1", "ndcg@10", "err@10"}


def test_eval_rejects_mismatched_shapes(run_dir, data_dir, capsys):
    rc = main(["eval", "--model", str(run_dir / "model_seed0.npz"),
               "--data", str(data_dir)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_demo_prints_reference_numbers(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    rc = main(["oracle-demo", "--preset", "strong", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.509" in out
    expected = overestimation_report(ToyCausalModel.reference())
    assert csv_path.read_text() == expected.as_csv()


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


@pytest.mark.parametrize("files", [
    {"curves_seed0.csv": "step,algorithm,seed,ndcg@1\n0,upe,0\n"},
    {"curves_seed0.csv": f"{FULL_HEADER}\n0,upe,0\n"},
    {"curves_seed0.csv": FULL_HEADER + "\n",
     "curves_seed1.csv": FULL_HEADER + "\n"},
    {"manifest.json": '{"results": ["curves_seed0.csv"]}',
     "curves_seed0.csv": FULL_HEADER + "\n"},
], ids=["short-header", "ragged-row", "header-only", "manifest-results-list"])
def test_export_curves_bad_inputs_fail_with_one_line(tmp_path, capsys, files):
    runs = tmp_path / "runs"
    runs.mkdir()
    for name, text in files.items():
        (runs / name).write_text(text)
    out = tmp_path / "x.csv"
    rc = main(["export-curves", "--runs", str(runs), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o"),
               "--set", "no_such_option=3"])
    assert rc == 1
    assert "no_such_option" in capsys.readouterr().err


def test_bad_seed_range_fails_cleanly(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o"), "--seeds", "3"])
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
    """Run `train` with arguments that must be refused before any seed starts."""
    line = _fails_cleanly("train", "--out", str(out), *args)
    assert not out.exists()
    return line


@pytest.mark.parametrize("setting", ["total_steps=abc", "total_steps=true",
                                     "total_steps=2000.0", "total_steps=[2000]",
                                     "simulation.eta=true", "learning_rate=fast",
                                     "ranker_hidden=[8,-1]", "simulation=5",
                                     "simulation.eta=NaN", "simulation.eta=Infinity",
                                     "learning_rate=NaN", "learning_rate=Infinity",
                                     "tau=0", "tau=1.5", "dropout=1.0", "dropout=-0.1"])
def test_bad_config_types_fail_cleanly(tmp_path, setting):
    line = _train_fails_cleanly(tmp_path / "o", "--set", setting)
    assert setting.split("=")[0].split(".")[-1] in line


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


@pytest.mark.parametrize("seeds", ["4..0", "", "..", "0..", "a..2", "0..1.5"])
def test_reversed_empty_and_non_integer_seed_ranges_fail_cleanly(tmp_path, seeds):
    line = _train_fails_cleanly(tmp_path / "o", "--seeds", seeds)
    assert "--seeds" in line


def test_single_seed_range(data_dir, tmp_path):
    out = tmp_path / "one"
    assert main(["train", "--out", str(out), "--data", str(data_dir),
                 "--algorithm", "naive", "--paradigm", "Off",
                 "--seeds", "3..3"] + TINY) == 0
    assert json.loads((out / "manifest.json").read_text())["seeds"] == [3]


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
    st.text().filter(lambda s: ".." not in s),
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
    args = [] if seeds is None else [f"--seeds={seeds}"]  # a value may start with "-"
    args += [] if steps is None else ["--set", f"total_steps={steps}"]
    _train_fails_cleanly(tmp_path_factory.getbasetemp() / "never-written", *args)


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--frobnicate"])
    assert exc.value.code == 2

"""End-to-end acceptance checks at the laboratory's reference scale.

Each numbered test measures one headline claim and prints a single
``CRITERION n: PASS/FAIL`` line with the values it measured (run pytest with
``-s`` to see the lines for passing criteria too). The heavy experiment
fixtures are shared across criteria, so this file is best run as a whole:

    pytest tests/test_acceptance.py -s -v

Two criteria are known not to hold at this scale and their tests fail
honestly rather than at a loosened tolerance. Criterion 5's online margin
and all of criterion 6 compare mean nDCG@10 between online learners, but
every competent learner saturates this synthetic collection near 0.999, so
those comparisons ride on a spread of a few 1e-4 of seed noise. The effects
the clauses are after are real and visible one column over, in the
normalized propensity estimates, which the failure messages print.

Every test here carries the ``acceptance`` marker, so the fast suite is
``pytest -m "not acceptance"``.
"""

import csv
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    GRADIENT_PRIMITIVES,
    backdoor_adjustment_terms,
    brute_err,
    brute_ndcg,
    check_gradients,
    check_parameter_gradients,
    full_information_loss,
    gradient_case,
    lpp_gradient_case,
    random_causal_model,
    ranker_gradient_case,
)
from ultrlab.causal import (
    ToyCausalModel,
    enumerate_joint,
    interventional_joint,
    overestimation_report,
)
from ultrlab.cli import main as cli_main
from ultrlab.clicks import PositionBiasCurve, sample_click_matrix
from ultrlab.data import generate_synthetic
from ultrlab.metrics import ranking_metrics
from ultrlab.propensity import PropensityEstimate
from ultrlab.ranker import RankerMLP, ipw_ranking_loss
from ultrlab.training import DatasetView, ExperimentConfig

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)

# The reference runs as (fixture, key, algorithm, paradigm, --set overrides):
# each row is one `train --seed 0..4` call on the default collection, and the
# nine calls share one pool.
GRID = (("ond_runs", "dla", "dla", "OnD", ()), ("ond_runs", "upe", "upe", "OnD", ()),
        *(("off_runs", a, a, "Off", ()) for a in ("naive", "dla", "upe", "ipw_oracle")),
        ("ablation_runs", "mrr", "upe", "OnD", ("target_variant=mrr",)),
        ("ablation_runs", "dcg", "upe", "OnD", ("target_variant=dcg",)),
        ("ablation_runs", "nofreeze", "upe", "OnD", ("upe_freeze=false",)))


def report(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def _train_argv(root, row):
    """One grid row as a single-process `train --seed 0..4` call with its own
    output directory, so no two calls write one manifest."""
    fixture, key, algorithm, paradigm, overrides = row
    sets = [arg for o in ("learning_rate=0.05", *overrides) for arg in ("--set", o)]
    return ["train", "--out", str(root / fixture / key), "--algorithm", algorithm,
            "--paradigm", paradigm, *sets, "--seed", f"{SEEDS[0]}..{SEEDS[-1]}"]


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Train every grid row through the CLI on one pool of the usable CPUs, UPE
    rows first (they take 3-5 times as long, so the short rows fill the last
    round), and read back every seed's final metrics and duration from the
    row's manifest and its estimate from the propensity CSV, keyed
    ``runs[fixture][(key, seed)]``."""
    root = tmp_path_factory.getbasetemp() / "grid"
    rows = sorted(GRID, key=lambda row: row[2] != "upe")
    workers = min(len(os.sched_getaffinity(0)), len(rows))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        codes = list(pool.map(cli_main, [_train_argv(root, row) for row in rows]))
    assert codes == [0] * len(rows)
    runs = {fixture: {} for fixture, *_ in GRID}
    for fixture, key, *_ in GRID:
        out = root / fixture / key
        for entry in json.loads((out / "manifest.json").read_text())["results"].values():
            with open(out / entry["propensity"]) as fh:
                weights = np.array([float(row["weight"]) for row in csv.DictReader(fh)])
            runs[fixture][(key, entry["seed"])] = SimpleNamespace(**entry, weights=weights)
    return runs


@pytest.fixture(scope="module")
def ond_runs(grid_runs):
    """upe and dla, online, five seeds each, at the reference scale."""
    return grid_runs["ond_runs"]


@pytest.fixture(scope="module")
def off_runs(grid_runs):
    """All four algorithms, offline on the 1%-data weak policy, five seeds."""
    return grid_runs["off_runs"]


@pytest.fixture(scope="module")
def ablation_runs(grid_runs):
    """Target-variant and no-freeze ablations of the policy-aware model."""
    return grid_runs["ablation_runs"]


def _mean_ndcg(runs, key):
    return float(np.mean([runs[(key, s)].final_metrics["ndcg@10"]
                          for s in SEEDS]))


def test_criterion_1_causal_oracle_exactness():
    started = time.monotonic()
    rep = overestimation_report(ToyCausalModel.reference())
    over1 = rep.overestimation[0]
    ratio = rep.estimand[0] / rep.estimand[1]
    causal_ratio = rep.causal[0] / rep.causal[1]
    exact = (abs(over1 - 83.0 / 55.0) <= 1e-9
             and abs(ratio - 83.0 / 13.5) <= 1e-9
             and abs(causal_ratio - 2.0) <= 1e-9)

    worst_decomp = worst_adjust = 0.0
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        model = random_causal_model(rng)
        k = int(rng.integers(1, model.n_positions + 1)) - 1
        clicked = enumerate_joint(model)[:, :, k, :, 1]  # axes (x, r, e)
        direct = clicked[:, :, 1].sum() / clicked.sum()
        total = sum(clicked[x, :, 1].sum() / clicked[x].sum()
                    * (clicked[x].sum() / clicked.sum())
                    for x in range(model.n_types))
        worst_decomp = max(worst_decomp, abs(direct - total))
        done = interventional_joint(model)[:, :, k, :, 1]
        cut = done[:, :, 1].sum() / done.sum()
        summed = float(backdoor_adjustment_terms(model, k, slice(1, 2)).sum())
        worst_adjust = max(worst_adjust, abs(cut - summed))
    elapsed = time.monotonic() - started

    ok = (exact and worst_decomp <= 1e-12 and worst_adjust <= 1e-12
          and elapsed < 1.0)
    detail = (f"overestimation@1 {over1:.9f} (want 83/55), estimand ratio "
              f"{ratio:.6f} vs causal {causal_ratio:.6f}, identity errors "
              f"{worst_decomp:.2e}/{worst_adjust:.2e}, {elapsed:.2f}s")
    assert ok, report(1, ok, detail)
    report(1, ok, detail)


def test_criterion_2_gradient_suite():
    started = time.monotonic()
    for name in GRADIENT_PRIMITIVES:
        for trial in range(10):
            arrays, build = gradient_case(name, np.random.default_rng(5000 + trial))
            check_gradients(build, arrays, tol=1e-4)
    for trial in range(10):
        params, loss_fn = ranker_gradient_case(np.random.default_rng(6000 + trial))
        check_parameter_gradients(params, loss_fn, tol=1e-4)
        params, loss_fn = lpp_gradient_case(np.random.default_rng(6500 + trial))
        check_parameter_gradients(params, loss_fn, tol=1e-4)
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    detail = (f"{len(GRADIENT_PRIMITIVES)} primitives and 2 full models x 10 "
              f"trials at rtol 1e-4, {elapsed:.1f}s")
    assert ok, report(2, ok, detail)
    report(2, ok, detail)


def test_criterion_3_ipw_unbiasedness():
    started = time.monotonic()
    tiny = generate_synthetic(3, 4, 4, seed=1234)
    view = DatasetView(tiny)
    labels = view.labels
    ranker = RankerMLP(4, np.random.default_rng(42), hidden=(8, 6), dropout=0.0)
    flat = view.features.reshape(-1, 4)
    scores = ranker.forward(flat).reshape(3, 4)

    curve = PositionBiasCurve.inverse_rank(4)
    cfg = ExperimentConfig()
    truth = PropensityEstimate.from_raw(curve.examination(cfg.simulation.eta))
    full = float(full_information_loss(scores, labels, cfg.simulation).data)

    per_query = 33_334  # 100_002 sessions, balanced over the three queries
    tiled_labels = np.tile(labels, (per_query, 1))
    clicks = sample_click_matrix(tiled_labels, curve, cfg.simulation,
                                 np.random.default_rng(77))
    tiled_scores = ranker.forward(np.tile(flat, (per_query, 1)))
    ipw = float(ipw_ranking_loss(tiled_scores.reshape(-1, 4), clicks,
                                 truth, tau=cfg.tau).data)
    rel_err = abs(ipw - full) / abs(full)
    elapsed = time.monotonic() - started
    ok = rel_err <= 0.02 and elapsed < 60.0
    detail = (f"IPW Monte Carlo mean {ipw:.6f} vs full-information {full:.6f} "
              f"over {3 * per_query} sessions, rel err {rel_err:.4f}, "
              f"{elapsed:.1f}s")
    assert ok, report(3, ok, detail)
    report(3, ok, detail)


def test_criterion_4_propensity_overestimation(ond_runs):
    dla_np1 = [ond_runs[("dla", s)].final_metrics["norm_prop@1"] for s in SEEDS]
    upe_np1 = [ond_runs[("upe", s)].final_metrics["norm_prop@1"] for s in SEEDS]
    dla_mean, upe_mean = float(np.mean(dla_np1)), float(np.mean(upe_np1))
    # The ten runs' own seconds, summed: the pool's wall time would time less work per run.
    elapsed = sum(run.duration_s for run in ond_runs.values())
    ok = dla_mean > 13.0 and 8.5 <= upe_mean <= 11.5 and elapsed < 600.0
    detail = (f"normalized propensity@1 (truth 10): dla mean {dla_mean:.2f} "
              f"{[round(v, 2) for v in dla_np1]}, upe mean {upe_mean:.2f} "
              f"{[round(v, 2) for v in upe_np1]}, fixture {elapsed:.0f}s")
    assert ok, report(4, ok, detail)
    report(4, ok, detail)


def test_criterion_5_ranking_superiority(ond_runs, off_runs):
    ond_upe = [ond_runs[("upe", s)].final_metrics["ndcg@10"] for s in SEEDS]
    ond_dla = [ond_runs[("dla", s)].final_metrics["ndcg@10"] for s in SEEDS]
    ond_margin = float(np.mean(ond_upe) - np.mean(ond_dla))
    ond_signs = sum(u > d for u, d in zip(ond_upe, ond_dla))

    means = {a: _mean_ndcg(off_runs, a)
             for a in ("naive", "dla", "upe", "ipw_oracle")}
    upe_dla = sum(off_runs[("upe", s)].final_metrics["ndcg@10"]
                  >= off_runs[("dla", s)].final_metrics["ndcg@10"]
                  for s in SEEDS)
    dla_naive = sum(off_runs[("dla", s)].final_metrics["ndcg@10"]
                    >= off_runs[("naive", s)].final_metrics["ndcg@10"]
                    for s in SEEDS)
    oracle_gap = abs(means["ipw_oracle"] - means["upe"])

    ond_ok = ond_margin >= 0.01 and ond_signs >= 4
    off_ok = (means["upe"] >= means["dla"] >= means["naive"]
              and upe_dla >= 4 and dla_naive >= 4 and oracle_gap <= 0.01)
    ok = ond_ok and off_ok
    detail = (f"OnD margin {ond_margin:+.4f} (want >= +0.01, sign {ond_signs}/5); "
              f"Off ndcg@10 upe {means['upe']:.4f} >= dla {means['dla']:.4f} "
              f">= naive {means['naive']:.4f} (signs {upe_dla}/5, {dla_naive}/5), "
              f"oracle gap {oracle_gap:.5f}")
    assert ok, report(5, ok, detail)
    report(5, ok, detail)


def test_criterion_6_target_and_freeze_ablations(ond_runs, ablation_runs):
    logging_mean = float(np.mean([ond_runs[("upe", s)].final_metrics["ndcg@10"]
                                  for s in SEEDS]))
    mrr_mean = _mean_ndcg(ablation_runs, "mrr")
    dcg_mean = _mean_ndcg(ablation_runs, "dcg")
    nofreeze_mean = _mean_ndcg(ablation_runs, "nofreeze")
    gap = logging_mean - nofreeze_mean

    def np1(runs, key):
        return float(np.mean([runs[(key, s)].final_metrics["norm_prop@1"] for s in SEEDS]))

    props = (f"normalized propensity@1: logging {np1(ond_runs, 'upe'):.2f}, "
             f"mrr {np1(ablation_runs, 'mrr'):.2f}, "
             f"dcg {np1(ablation_runs, 'dcg'):.2f}, "
             f"no-freeze {np1(ablation_runs, 'nofreeze'):.2f} (truth 10)")
    ok = (logging_mean >= mrr_mean and logging_mean >= dcg_mean
          and gap >= 0.01)
    detail = (f"ndcg@10 logging-target {logging_mean:.4f} vs mrr {mrr_mean:.4f} "
              f"/ dcg {dcg_mean:.4f}; no-freeze gap {gap:+.4f} (want >= +0.01); "
              + props)
    assert ok, report(6, ok, detail)
    report(6, ok, detail)


def test_criterion_7_metric_oracle_equivalence():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        labels = rng.integers(0, 5, size=n)
        k = int(rng.integers(1, n + 1))
        got = ranking_metrics(labels[None, :], cutoffs=(k,))
        worst = max(worst,
                    abs(got[f"ndcg@{k}"][0] - brute_ndcg(labels, k)),
                    abs(got[f"err@{k}"][0] - brute_err(labels, k)))
    ok = worst <= 1e-12
    detail = f"1000 random lists, worst |ndcg/err - brute force| {worst:.2e}"
    assert ok, report(7, ok, detail)
    report(7, ok, detail)


def test_criterion_8_training_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data_dir), "--train-queries", "8",
                     "--test-queries", "4", "--docs", "5", "--features", "5",
                     "--seed", "3"]) == 0
    args = ["--data", str(data_dir), "--algorithm", "upe", "--paradigm", "OnD",
            "--seed", "0..1", "--set", "total_steps=50",
            "--set", "eval_every=25", "--set", "refresh_interval=25",
            "--set", "batch_queries=4", "--set", "weak_fraction=0.5",
            "--set", "probe_docs=20", "--set", "ranker_hidden=[8,6]",
            "--set", "lpp_embed_dim=4", "--set", "lpp_encoder_hidden=[6]",
            "--set", "lpp_ffn_hidden=[5]"]
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["train", "--out", str(first)] + args) == 0
    assert cli_main(["train", "--out", str(second)] + args) == 0
    identical = all(
        (first / f"curves_seed{s}.csv").read_bytes()
        == (second / f"curves_seed{s}.csv").read_bytes()
        for s in (0, 1))
    ok = identical
    detail = "repeated train invocations produced byte-identical curve CSVs"
    assert ok, report(8, ok, detail)
    report(8, ok, detail)


def test_converged_estimate_is_monotone_on_average(ond_runs):
    """The seed-averaged UPE estimate read at step 2000, the reference run's
    last step, decays with rank (tolerance 0.02). The runs are still moving
    there, so this is not a converged estimate. Single desk-scale seeds can
    carry a tail wobble above the tolerance, so the check reads the mean
    curve and prints the per-seed wobble."""
    stack = np.stack([ond_runs[("upe", s)].weights for s in SEEDS])
    per_seed = [float(np.diff(w).max()) for w in stack]
    mean_curve = stack.mean(axis=0)
    worst = float(np.diff(mean_curve).max())
    print(f"mean-estimate max rank-to-rank increase {worst:+.4f} "
          f"(per seed {[round(v, 3) for v in per_seed]})", flush=True)
    assert worst <= 0.02
    assert mean_curve[0] == 1.0


def test_every_reference_run_writes_its_pinned_bytes(tmp_path_factory, grid_runs):
    """Every grid run's curve and final-propensity CSVs hash to the SHA-256 in
    ``tests/data/acceptance_digests.json``, keyed by grid row and seed (the
    manifest holds clock fields, so it is left out, as is the ranker npz).
    The digests hold for this numpy and OpenBLAS build with BLAS on one
    thread, the host assumption of the pinned curves. Only a change meant to
    move curves rewrites the file, from the digests its failure lists, and
    says why."""
    want = json.loads((Path(__file__).parent / "data" / "acceptance_digests.json").read_text())
    root = tmp_path_factory.getbasetemp() / "grid"
    got = {run: hashlib.sha256((root / run).read_bytes()).hexdigest()
           for run in (f"{fixture}/{key}/{kind}_seed{seed}.csv" for fixture, key, *_ in GRID
                       for seed in SEEDS for kind in ("curves", "propensity"))}
    moved = [f"{run}: {want.get(run)} -> {got.get(run)}"
             for run in sorted(want.keys() | got.keys()) if want.get(run) != got.get(run)]
    assert not moved, f"{len(moved)} run file(s) moved:\n" + "\n".join(moved)

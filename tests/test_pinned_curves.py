"""Byte-identity gate: short fixed-seed runs against stored curve CSVs.

The first two stored files under ``tests/data`` were written by the same
configs before the dataset layer moved to flat arrays; the UPE ``Off`` and
no-freeze files were written before gradient buffers were handed over instead
of copied. The no-freeze run is the one where the gradient through the
document pathway of the LPP joint step moves parameters. A change that is
meant to alter the curves must regenerate them (``RunResult.curves_csv()`` of
these configs) and say why; any other change must leave these bytes alone.
The ``propensity_*`` files hold ``final_estimate.as_csv()`` of the same runs,
written when the OnD bootstrap policy was still a second ranker built from the
learner's seed label.
"""

from pathlib import Path

import pytest

from ultrlab.training import ExperimentConfig, make_split_data, run_experiment

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def split():
    return make_split_data(n_train=40, n_test=20, seed=7)


@pytest.mark.parametrize("algorithm, paradigm, overrides, stored", [
    pytest.param("upe", "OnD", {}, "curves_upe_OnD.csv", id="upe-OnD"),
    pytest.param("dla", "Off", {}, "curves_dla_Off.csv", id="dla-Off"),
    pytest.param("upe", "OnD", {"upe_freeze": False}, "curves_upe_OnD_nofreeze.csv",
                 id="upe-OnD-nofreeze"),
    pytest.param("upe", "Off", {}, "curves_upe_Off.csv", id="upe-Off"),
])
def test_short_run_curves_match_stored_bytes(split, algorithm, paradigm, overrides, stored):
    cfg = ExperimentConfig(paradigm=paradigm, algorithm=algorithm, total_steps=40,
                           refresh_interval=20, eval_every=20, batch_queries=8,
                           weak_fraction=0.1, **overrides)
    got = run_experiment(cfg, split).curves_csv().encode()
    assert got == (DATA / stored).read_bytes()


@pytest.mark.parametrize("algorithm, paradigm, overrides, stored", [
    pytest.param("upe", "OnD", {}, "propensity_upe-OnD.csv", id="upe-OnD"),
    pytest.param("dla", "Off", {}, "propensity_dla-Off.csv", id="dla-Off"),
    pytest.param("upe", "OnD", {"upe_freeze": False}, "propensity_upe-OnD-nofreeze.csv",
                 id="upe-OnD-nofreeze"),
    pytest.param("upe", "Off", {}, "propensity_upe-Off.csv", id="upe-Off"),
])
def test_short_run_final_propensity_matches_stored_bytes(split, algorithm, paradigm,
                                                         overrides, stored):
    """The final estimate of the same runs, as ``train`` writes it."""
    cfg = ExperimentConfig(paradigm=paradigm, algorithm=algorithm, total_steps=40,
                           refresh_interval=20, eval_every=20, batch_queries=8,
                           weak_fraction=0.1, **overrides)
    got = run_experiment(cfg, split).final_estimate.as_csv().encode()
    assert got == (DATA / stored).read_bytes()

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

pytestmark = pytest.mark.bytegate


# The four short runs by test id: (algorithm, paradigm, config overrides).
RUNS = {
    "upe-OnD": ("upe", "OnD", {}),
    "dla-Off": ("dla", "Off", {}),
    "upe-OnD-nofreeze": ("upe", "OnD", {"upe_freeze": False}),
    "upe-Off": ("upe", "Off", {}),
}


@pytest.fixture(scope="module")
def results():
    """Each run trained once, for both its curve and its final-propensity check."""
    split = make_split_data(n_train=40, n_test=20, seed=7)
    return {key: run_experiment(ExperimentConfig(paradigm=paradigm, algorithm=algorithm,
                                                 total_steps=40, refresh_interval=20,
                                                 eval_every=20, batch_queries=8,
                                                 weak_fraction=0.1, **overrides), split)
            for key, (algorithm, paradigm, overrides) in RUNS.items()}


@pytest.mark.parametrize("key", RUNS)
def test_short_run_curves_match_stored_bytes(results, key):
    got = results[key].curves_csv().encode()
    assert got == (DATA / f"curves_{key.replace('-', '_')}.csv").read_bytes()


@pytest.mark.parametrize("key", RUNS)
def test_short_run_final_propensity_matches_stored_bytes(results, key):
    """The final estimate of the same runs, as ``train`` writes it."""
    got = results[key].final_estimate.as_csv().encode()
    assert got == (DATA / f"propensity_{key}.csv").read_bytes()

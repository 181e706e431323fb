"""Byte-identity gate: two short fixed-seed runs against stored curve CSVs.

The stored files under ``tests/data`` were written by the same configs before
the dataset layer moved to flat arrays. A change that is meant to alter the
curves must regenerate them (``RunResult.curves_csv()`` of these configs) and
say why; any other change must leave these bytes alone.
"""

from pathlib import Path

import pytest

from ultrlab.training import ExperimentConfig, make_split_data, run_experiment

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def split():
    return make_split_data(n_train=40, n_test=20, seed=7)


@pytest.mark.parametrize("algorithm, paradigm", [("upe", "OnD"), ("dla", "Off")])
def test_short_run_curves_match_stored_bytes(split, algorithm, paradigm):
    cfg = ExperimentConfig(paradigm=paradigm, algorithm=algorithm, total_steps=40,
                           refresh_interval=20, eval_every=20, batch_queries=8,
                           weak_fraction=0.1)
    got = run_experiment(cfg, split).curves_csv().encode()
    assert got == (DATA / f"curves_{algorithm}_{paradigm}.csv").read_bytes()

"""Byte-identity gate at the reference step shape: batch 32 x 10 documents.

The runs in ``test_pinned_curves.py`` use 8 queries per batch, so none of
them feeds a 320-row block through the LPP joint step or the backdoor
readout. This run does. Both files were written by this config before the
readout was split into per-rank blocks and before backward learned to skip
the parameters an update does not move; any change that is not meant to alter
the numbers must leave these bytes alone.
"""

from pathlib import Path

import pytest

from ultrlab.training import ExperimentConfig, make_split_data, run_experiment

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def result():
    cfg = ExperimentConfig(paradigm="OnD", algorithm="upe", total_steps=40,
                           refresh_interval=20, eval_every=20, batch_queries=32,
                           weak_fraction=0.1)
    return run_experiment(cfg, make_split_data(n_train=40, n_test=20, seed=7))


def test_batch32_curves_match_stored_bytes(result):
    assert result.curves_csv().encode() == (DATA / "curves_upe_OnD_batch32.csv").read_bytes()


def test_batch32_final_propensity_matches_stored_bytes(result):
    got = result.final_estimate.as_csv().encode()
    assert got == (DATA / "propensity_upe-OnD_batch32.csv").read_bytes()

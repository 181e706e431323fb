"""BLAS threads: the suite runs on one, and the byte gate holds on one or two.

``conftest.py`` pins OpenBLAS to one thread before numpy loads. The pinned
batch-32 run (``test_pinned_batch32.py``) must write the same bytes whatever
the thread count, so it is run here in two fresh processes, one per setting,
each of which reports the thread count OpenBLAS itself took.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import openblas_threads

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

BATCH32_RUN = """
import json
from helpers import openblas_threads
from ultrlab.training import ExperimentConfig, make_split_data, run_experiment
cfg = ExperimentConfig(paradigm="OnD", algorithm="upe", total_steps=40, refresh_interval=20,
                       eval_every=20, batch_queries=32, weak_fraction=0.1)
result = run_experiment(cfg, make_split_data(n_train=40, n_test=20, seed=7))
print(json.dumps({"threads": openblas_threads(), "curves": result.curves_csv(),
                  "propensity": result.final_estimate.as_csv()}))
"""


def test_the_session_runs_openblas_on_one_thread():
    np.ones((2, 2)) @ np.ones((2, 2))
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == 1


def _batch32_run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", BATCH32_RUN], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.bytegate
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the cores")
def test_batch32_bytes_do_not_depend_on_blas_threads():
    one, two = _batch32_run(1), _batch32_run(2)
    if one["threads"] is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert (one["threads"], two["threads"]) == (1, 2)
    data = TESTS / "data"
    for run in (one, two):
        assert run["curves"].encode() == (data / "curves_upe_OnD_batch32.csv").read_bytes()
        assert run["propensity"].encode() == \
            (data / "propensity_upe-OnD_batch32.csv").read_bytes()

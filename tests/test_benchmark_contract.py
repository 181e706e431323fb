"""The names perfbench patches from outside the package must stay where it looks.

``perfbench/tracer.py`` wraps public functions and methods by name in the
module or class that calls them, and ``perfbench/run.py``'s step clock
replaces ``step`` in the learner class body; its workloads call
``ultrlab.cli.main`` with fixed argument lists. A refactor that moves one of
those names or options breaks the benchmark; these checks make it break here first.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ultrlab import cli, training
from ultrlab.autodiff import Tensor
from ultrlab.ranker import RankerMLP

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_tracer_target_installs_and_uninstalls(tracer_module):
    before = {(path, attr): _owner(path).__dict__[attr]
              for path, attr, _ in tracer_module.TARGETS}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for path, attr, _ in tracer_module.TARGETS:
            assert _owner(path).__dict__[attr] is not before[(path, attr)]
    finally:
        tracer.uninstall()
    for path, attr, _ in tracer_module.TARGETS:
        assert _owner(path).__dict__[attr] is before[(path, attr)]


def _perfbench_train_args():
    """``TRAIN_ARGS`` of perfbench/run.py, read from its source without running it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRAIN_ARGS"]]
    return ast.literal_eval(value)


@pytest.mark.parametrize("workload", sorted(_perfbench_train_args()))
def test_perfbench_argv_parses_to_a_single_seed_run(workload):
    parser = cli.build_parser()
    args = parser.parse_args(["train", *_perfbench_train_args()[workload], "--data", "D",
                              "--seed", "3", "--out", "O"])
    assert args.func is cli.cmd_train and (args.data, args.out) == ("D", "O")
    assert cli._parse_seeds(args.seed) == [3]
    args = parser.parse_args(["gen-data", "--out", "D", "--seed", "3"])
    assert args.func is cli.cmd_gen_data and (args.out, args.seed) == ("D", 3)


def test_step_clock_learners_define_their_own_step():
    for cls in (training.UPELearner, training.DLALearner):
        assert "step" in cls.__dict__, cls.__name__


@pytest.mark.parametrize("algorithm", ["upe", "dla"])
def test_traced_steps_do_not_nest_and_return_finite_losses(tracer_module, algorithm):
    data = training.make_split_data(n_train=12, n_test=4, docs_per_query=5,
                                    feature_dim=4, seed=1)
    cfg = training.ExperimentConfig(
        paradigm="OnD", algorithm=algorithm, total_steps=4, refresh_interval=2,
        batch_queries=4, eval_every=4, ranker_hidden=(6,), lpp_embed_dim=4,
        lpp_encoder_hidden=(5,), lpp_ffn_hidden=(5,), probe_docs=10)
    cls = training.UPELearner if algorithm == "upe" else training.DLALearner
    original = cls.__dict__["step"]
    losses = []

    def step(learner, batch):
        loss = original(learner, batch)
        losses.append(loss)
        return loss

    # The step clock patches first and the tracer wraps the clock, as in a traced run.
    cls.step = step
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        training.run_experiment(cfg, data)
    finally:
        tracer.uninstall()
        cls.step = original
    steps = [i for i, name in enumerate(tracer.names) if name == "training.step"]
    assert len(steps) == cfg.total_steps
    for i in steps:
        parent = tracer.parents[i]
        assert parent < 0 or tracer.names[parent] != "training.step"
    assert len(losses) == cfg.total_steps
    assert all(isinstance(loss, float) and math.isfinite(loss) for loss in losses)


def test_ranker_forward_returns_a_tensor_with_one_score_row_per_document():
    """perfbench's ``ranker.forward_rows`` hook and its ingest check read
    ``RankerMLP.forward(X).data`` as an (n, 1) score column."""
    model = RankerMLP(4, np.random.default_rng(0), hidden=(6, 3))
    X = np.random.default_rng(1).uniform(size=(7, 4))
    for rng in (None, np.random.default_rng(2)):
        out = model.forward(X, rng=rng)
        assert isinstance(out, Tensor)
        assert out.data.shape == (7, 1)

"""Training loop: policies, learner wiring, paradigm equivalence, determinism."""

import dataclasses
import gc
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import displayed_take_along_axis
from ultrlab import autodiff, training
from ultrlab.clicks import PositionBiasCurve, SimulationConfig
from ultrlab.data import Dataset, generate_synthetic
from ultrlab.metrics import ranking_metrics
from ultrlab.propensity import LPPModel, PropensityEstimate, backdoor_estimate
from ultrlab.ranker import RankerMLP
from ultrlab.training import (
    CURVE_COLUMNS,
    DatasetView,
    DLALearner,
    ExperimentConfig,
    IPWLearner,
    LoggingPolicy,
    SplitData,
    StepBatch,
    UPELearner,
    evaluate_ranker,
    make_split_data,
    rank_view_scores,
    run_experiment,
    train_weak_policy,
)
from ultrlab.training import sample_click_matrix as training_sample_click_matrix


@pytest.fixture(scope="module")
def small_data():
    return make_split_data(n_train=30, n_test=10, docs_per_query=6,
                           feature_dim=5, seed=5)


@pytest.fixture(scope="module")
def default_data():
    return make_split_data()


def _small_cfg(**overrides):
    base = dict(paradigm="Off", algorithm="naive", total_steps=30,
                batch_queries=8, refresh_interval=10, learning_rate=0.05,
                seed=0, eval_every=15, weak_fraction=0.5,
                ranker_hidden=(8, 6), lpp_embed_dim=4,
                lpp_encoder_hidden=(6,), lpp_ffn_hidden=(5,), probe_docs=40)
    base.update(overrides)
    return ExperimentConfig(**base)


def _policy_and_batch(data, cfg, n_pos=6, seed=21):
    policy = train_weak_policy(data.train, 0.5, seed=seed)
    curve = PositionBiasCurve.inverse_rank(n_pos)
    rows = np.arange(min(8, policy.view.n_queries))
    feats, labels, scores = policy.displayed(rows, n_pos)
    clicks = sample_click_matrix(labels, curve, cfg.simulation,
                                 np.random.default_rng(seed))
    return policy, StepBatch(features=feats, clicks=clicks, logging_scores=scores)


def sample_click_matrix(labels, curve, sim, rng):
    return training_sample_click_matrix(labels, curve, sim, rng)


def _one_query(doc_ids, features, labels):
    return Dataset(features=[features], labels=[labels], doc_ids=[doc_ids], query_ids=["q"])


def _policy_metrics(policy):
    """Mean metrics of a frozen policy's own displayed ordering on its dataset."""
    ranked = np.take_along_axis(policy.view.labels, rank_view_scores(policy.scores), axis=1)
    return {key: float(v.mean()) for key, v in ranking_metrics(ranked).items()}


def test_make_split_data_shares_one_teacher():
    data = make_split_data(n_train=12, n_test=6, docs_per_query=4,
                           feature_dim=5, seed=3)
    assert data.train.n_queries == 12 and data.test.n_queries == 6
    again = make_split_data(n_train=12, n_test=6, docs_per_query=4,
                            feature_dim=5, seed=3)
    assert np.array_equal(DatasetView(data.train).features,
                          DatasetView(again.train).features)


def test_dataset_view_holds_the_datasets_arrays():
    ds = _one_query(["b", "a"], np.array([[1.0, 0.0], [0.0, 1.0]]), [1, 2])
    view = DatasetView(ds)
    assert view.features is ds.features and view.labels is ds.labels
    assert np.array_equal(view.labels, np.array([[2, 1]]))
    assert np.array_equal(view.features[0, 0], np.array([0.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dataset_view_does_not_depend_on_row_order_within_queries(seed):
    """The dataset sorts each row by doc id, so documents shuffled within each
    query give the view of the sorted dataset."""
    ds = generate_synthetic(7, 12, 4, seed=4)
    rng = np.random.default_rng(seed)
    perm = np.argsort(rng.random(ds.labels.shape), axis=1)
    shuffled = Dataset(features=np.take_along_axis(ds.features, perm[..., None], axis=1),
                       labels=np.take_along_axis(ds.labels, perm, axis=1),
                       doc_ids=np.take_along_axis(ds.doc_ids, perm, axis=1),
                       query_ids=ds.query_ids)
    view, again = DatasetView(ds), DatasetView(shuffled)
    assert np.array_equal(again.features, view.features)
    assert np.array_equal(again.labels, view.labels)
    assert (again.n_queries, again.n_docs) == (view.n_queries, view.n_docs)


def test_dataset_view_requires_equal_list_lengths():
    ds = Dataset(features=np.zeros((2, 2, 2)), labels=[[0, 0], [1, 0]],
                 doc_ids=[["d0", "d1"], ["d0", ""]], query_ids=["a", "b"])
    with pytest.raises(ValueError, match=r"got lengths \[1, 2\]"):
        DatasetView(ds)


def test_logging_policy_from_linear_and_displayed():
    ds = generate_synthetic(4, 5, 4, seed=8)
    view = DatasetView(ds)
    w = np.array([1.0, -0.5, 0.25, 0.0])
    policy = LoggingPolicy.from_linear(w, view)
    assert np.allclose(policy.scores, view.features @ w)
    feats, labels, scores = policy.displayed(np.array([0, 2]), 3)
    assert feats.shape == (2, 3, 4) and labels.shape == (2, 3)
    for out_row, q in enumerate([0, 2]):
        order = np.argsort(-policy.scores[q], kind="stable")[:3]
        assert np.array_equal(labels[out_row], view.labels[q][order])
        assert np.array_equal(scores[out_row], policy.scores[q][order])
        assert np.array_equal(feats[out_row], view.features[q][order])
    assert np.all(np.diff(scores, axis=1) <= 0)


def test_logging_policy_arrays_are_frozen():
    ds = generate_synthetic(3, 4, 4, seed=9)
    view = DatasetView(ds)
    policy = LoggingPolicy.from_linear(np.ones(4), view)
    with pytest.raises(ValueError):
        policy.scores[0, 0] = 5.0
    with pytest.raises(ValueError):
        policy.shown_rows[0, 0] = 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_displayed_keeps_the_take_along_axis_bits(data):
    """The flat-row gather returns the per-query gathers' three arrays bit for
    bit, with their dtypes and shapes: tied scores, top_n past and short of
    the list, repeated and unsorted query rows, doc ids out of order."""
    n_queries, n_docs = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ds = Dataset(features=rng.normal(size=(n_queries, n_docs, d)),
                 labels=rng.integers(0, 5, size=(n_queries, n_docs)),
                 doc_ids=[[f"d{j}" for j in rng.permutation(n_docs)] for _ in range(n_queries)],
                 query_ids=[str(q) for q in range(n_queries)])
    scores = rng.integers(-2, 3, size=(n_queries, n_docs)) * 0.5
    policy = LoggingPolicy(view=DatasetView(ds), scores=scores)
    query_rows = np.array(data.draw(st.lists(st.integers(0, n_queries - 1),
                                             min_size=1, max_size=8)))
    top_n = data.draw(st.integers(1, n_docs + 3))
    got = policy.displayed(query_rows, top_n)
    want = displayed_take_along_axis(policy, query_rows, top_n)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()


def test_ond_upe_bytes_do_not_depend_on_the_infer_block(monkeypatch):
    """Policy refreshes and evaluations over splits past one block write the
    bytes of one-shot scoring. The train split is one row past two blocks."""
    data = make_split_data(n_train=205, n_test=120, docs_per_query=5, seed=3)
    assert min(data.train.labels.size, data.test.labels.size) > autodiff.INFER_BLOCK_ROWS + 1
    cfg = ExperimentConfig(paradigm="OnD", algorithm="upe", total_steps=40,
                           refresh_interval=10, eval_every=10, batch_queries=8)
    blocked = run_experiment(cfg, data)
    monkeypatch.setattr(autodiff, "INFER_BLOCK_ROWS", 10**9)
    one_shot = run_experiment(cfg, data)
    assert blocked.curves_csv() == one_shot.curves_csv()
    assert blocked.final_estimate.as_csv() == one_shot.final_estimate.as_csv()


def test_policy_scores_must_match_view_shape():
    ds = generate_synthetic(3, 4, 4, seed=10)
    view = DatasetView(ds)
    with pytest.raises(ValueError):
        LoggingPolicy(view=view, scores=np.zeros((2, 4)))


def test_weak_policy_quality_brackets(default_data):
    """Full supervision beats 1% supervision beats random ordering."""
    full = train_weak_policy(default_data.train, 1.0, seed=123)
    weak = train_weak_policy(default_data.train, 0.01, seed=123)
    view = DatasetView(default_data.train)
    rng = np.random.default_rng(99)
    rand = LoggingPolicy(view=view,
                         scores=rng.normal(size=(view.n_queries, view.n_docs)))
    full_ndcg = _policy_metrics(full)["ndcg@10"]
    weak_ndcg = _policy_metrics(weak)["ndcg@10"]
    rand_ndcg = _policy_metrics(rand)["ndcg@10"]
    assert full_ndcg > 0.9
    assert rand_ndcg < weak_ndcg < full_ndcg


def test_weak_policy_is_deterministic(small_data):
    a = train_weak_policy(small_data.train, 0.5, seed=11)
    b = train_weak_policy(small_data.train, 0.5, seed=11)
    assert np.array_equal(a.scores, b.scores)


def test_weak_policy_sampling_errors(small_data, default_data, monkeypatch):
    with pytest.raises(ValueError, match="^fraction 0.01 of 30 queries samples none$"):
        train_weak_policy(small_data.train, 0.01, seed=1)
    sizes = []

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def choice(self, n, size, replace):
            sizes.append(size)
            return self.rng.choice(n, size=size, replace=replace)

    rng_for = training.rng_for
    monkeypatch.setattr(training, "rng_for", lambda *key: CountingRng(rng_for(*key)))
    # (1 / n) * n rounds to just below 1 for these n; each still samples one query.
    for n in (49, 98):
        data = generate_synthetic(n, 6, 5, seed=3, teacher_seed=4)
        train_weak_policy(data, 1.0 / n, seed=1)
    # An exact product keeps its count, so the same rows are drawn.
    train_weak_policy(default_data.train, 0.01, seed=123)
    assert sizes == [1, 1, 5]
    with pytest.raises(ValueError):
        train_weak_policy(small_data.train, 0.0, seed=1)
    flat = _one_query([f"d{i}" for i in range(3)],
                      np.arange(3.0)[:, None] * np.ones(2), [2, 2, 2])
    with pytest.raises(ValueError, match="^sampled queries contain no unequal label pairs$"):
        train_weak_policy(flat, 1.0, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(paradigm="online")
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="rem")
    with pytest.raises(ValueError):
        ExperimentConfig(total_steps=100, refresh_interval=33)
    with pytest.raises(ValueError):
        ExperimentConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(weak_fraction=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(total_steps=0)


def test_config_field_types():
    """Counts take ints only, rates take ints or floats, never bools or strings."""
    for bad in (dict(total_steps=True), dict(total_steps=2000.0), dict(total_steps="2000"),
                dict(batch_queries=False), dict(seed=1.5), dict(learning_rate=True),
                dict(learning_rate="0.02"), dict(ranker_hidden=[8, 0]),
                dict(ranker_hidden=[8, True]), dict(ranker_hidden=8),
                dict(lpp_ffn_hidden="16"), dict(paradigm=1), dict(upe_freeze=1),
                dict(simulation={"eta": 1.0})):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    for bad in (dict(eta=True), dict(eta="2"), dict(top_n=10.0)):
        with pytest.raises(ValueError):
            SimulationConfig(**bad)
    assert SimulationConfig(eta=2).eta == 2
    assert ExperimentConfig(learning_rate=1, ranker_hidden=[8, 4]).ranker_hidden == (8, 4)


@pytest.mark.parametrize("raw, key", [({"bogus": 1}, "'bogus'"),
                                      ({"simulation": {"y_max": 4}}, "'simulation.y_max'")])
def test_from_dict_names_unknown_keys(raw, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(raw)


def test_config_round_trips_through_dict():
    cfg = _small_cfg(algorithm="upe", learning_rate=0.03)
    back = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
    assert back == cfg
    assert isinstance(back.ranker_hidden, tuple)
    assert back.simulation == cfg.simulation


def test_oracle_learner_uses_the_true_curve(small_data):
    cfg = _small_cfg(algorithm="ipw_oracle", simulation=SimulationConfig(eta=2.0),
                     total_steps=10, refresh_interval=10, eval_every=10)
    curve = PositionBiasCurve.inverse_rank(8)
    result = run_experiment(cfg, small_data, curve=curve)
    exam = curve.examination(2.0)[:6]
    assert np.allclose(result.final_estimate.weights, exam / exam[0], atol=1e-12)


def test_naive_learner_equals_dla_pinned_to_uniform(small_data):
    """With its position logits re-zeroed before every step, the dual learner's
    ranker update is the uniform-weight update, so the two rankers stay
    bitwise identical."""
    cfg = _small_cfg(algorithm="naive")
    naive = IPWLearner(cfg, 5, PropensityEstimate.uniform(6))
    pinned = DLALearner(cfg, 5, 6)
    for a, b in zip(naive.ranker.parameters(), pinned.ranker.parameters()):
        assert np.array_equal(a.data, b.data)
    for step in range(3):
        _, batch = _policy_and_batch(small_data, cfg, seed=40 + step)
        pinned.position_logits.data[:] = 0.0
        naive.step(batch)
        pinned.step(batch)
    for a, b in zip(naive.ranker.parameters(), pinned.ranker.parameters()):
        assert np.array_equal(a.data, b.data)


def _record_step_estimates(monkeypatch):
    """The backdoor estimates that UPE steps weight the ranker with, in order."""
    seen = []

    def spy(*args):
        seen.append(backdoor_estimate(*args))
        return seen[-1]
    monkeypatch.setattr(training, "backdoor_estimate", spy)
    return seen


def test_upe_with_inert_position_table_matches_dla_step(small_data, monkeypatch):
    """Zero position embeddings make every rank carry the same backdoor rate,
    so the first update degenerates to the uniform-weight update, which is
    also what the dual learner applies on its first step (zero logits)."""
    cfg = _small_cfg(algorithm="upe")
    policy, batch = _policy_and_batch(small_data, cfg, seed=77)
    probe = policy.view.flat_features()[:20]
    upe = UPELearner(cfg, 5, 6, probe)
    dla = DLALearner(cfg, 5, 6)
    for a, b in zip(upe.ranker.parameters(), dla.ranker.parameters()):
        assert np.array_equal(a.data, b.data)
    monkeypatch.setattr(training, "joint_propensity_step", lambda *args, **kw: 0.0)
    estimates = _record_step_estimates(monkeypatch)
    upe.step(batch)
    dla.step(batch)
    assert len(estimates) == 1
    assert np.array_equal(estimates[0].weights, np.ones(6))
    for a, b in zip(upe.ranker.parameters(), dla.ranker.parameters()):
        assert np.array_equal(a.data, b.data)


def test_upe_iteration_moves_the_right_parameters(small_data, monkeypatch):
    cfg = _small_cfg(algorithm="upe")
    policy, batch = _policy_and_batch(small_data, cfg, seed=55)
    probe = policy.view.flat_features()[:20]
    learner = UPELearner(cfg, 5, 6, probe)
    base_before = learner.position_logits.data.copy()
    table_before = learner.lpp.position_table.data.copy()
    pathway_before = [p.data.copy() for p in learner.lpp.g_pt]
    ranker_before = [p.data.copy() for p in learner.ranker.parameters()]
    estimates = _record_step_estimates(monkeypatch)
    for it in range(3):
        learner.step(batch)
        assert len(estimates) == it + 1
        est = estimates[-1]
        assert est.weights[0] == 1.0
        assert np.all(est.weights > 0) and np.all(est.weights <= 1.0)
    assert not np.array_equal(learner.position_logits.data, base_before)
    assert not np.array_equal(learner.lpp.position_table.data, table_before)
    assert any(not np.array_equal(p.data, b)
               for p, b in zip(learner.lpp.g_pt, pathway_before))
    assert any(not np.array_equal(p.data, b)
               for p, b in zip(learner.ranker.parameters(), ranker_before))


def test_run_result_is_bitwise_reproducible(small_data):
    cfg = _small_cfg(algorithm="upe", total_steps=20, eval_every=10,
                     refresh_interval=20)
    a = run_experiment(cfg, small_data)
    b = run_experiment(cfg, small_data)
    assert a.curves_csv() == b.curves_csv()
    assert np.array_equal(a.final_estimate.weights, b.final_estimate.weights)
    assert a.final_metrics == b.final_metrics


def test_paradigms_coincide_without_refresh(small_data):
    """A never-refreshing online run on a supplied policy is the offline run."""
    policy = train_weak_policy(small_data.train, 0.5, seed=2)
    kw = dict(algorithm="dla", total_steps=30, refresh_interval=30,
              eval_every=10)
    on = run_experiment(_small_cfg(paradigm="OnD", **kw), small_data, policy=policy)
    off = run_experiment(_small_cfg(paradigm="Off", **kw), small_data, policy=policy)
    assert on.curves_csv() == off.curves_csv()
    assert np.array_equal(on.final_estimate.weights, off.final_estimate.weights)


def test_click_stream_is_learner_independent(small_data, monkeypatch):
    """Offline, the displayed lists and sampled clicks match across algorithms."""
    recorded = {}

    def record_for(algo):
        def wrapper(labels, curve, sim, rng):
            clicks = training_sample_click_matrix(labels, curve, sim, rng)
            recorded.setdefault(algo, []).append((labels.copy(), clicks.copy()))
            return clicks
        return wrapper

    policy = train_weak_policy(small_data.train, 0.5, seed=2)
    for algo in ("naive", "upe"):
        monkeypatch.setattr("ultrlab.training.sample_click_matrix",
                            record_for(algo))
        run_experiment(_small_cfg(algorithm=algo, total_steps=10,
                                  refresh_interval=10, eval_every=5),
                       small_data, policy=policy)
    naive_steps, upe_steps = recorded["naive"], recorded["upe"]
    assert len(naive_steps) == len(upe_steps) == 10
    for (l1, c1), (l2, c2) in zip(naive_steps, upe_steps):
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)


def test_online_refresh_reshuffles_displayed_orders(small_data, monkeypatch):
    snapshots = []
    original = LoggingPolicy.from_ranker.__func__

    def spy(cls, ranker, view):
        policy = original(cls, ranker, view)
        snapshots.append(rank_view_scores(policy.scores))
        return policy

    monkeypatch.setattr(LoggingPolicy, "from_ranker", classmethod(spy))
    cfg = _small_cfg(paradigm="OnD", algorithm="naive", total_steps=30,
                     refresh_interval=10, eval_every=15, learning_rate=0.2)
    run_experiment(cfg, small_data)
    assert len(snapshots) == 3
    assert any(not np.array_equal(snapshots[0], later)
               for later in snapshots[1:])


def test_offline_rejects_policy_from_other_data(small_data):
    other = make_split_data(n_train=30, n_test=10, docs_per_query=6,
                            feature_dim=5, seed=6)
    policy = train_weak_policy(other.train, 0.5, seed=2)
    with pytest.raises(ValueError):
        run_experiment(_small_cfg(), small_data, policy=policy)


def test_curve_csv_schema(small_data):
    cfg = _small_cfg(total_steps=10, refresh_interval=10, eval_every=5)
    result = run_experiment(cfg, small_data)
    lines = result.curves_csv().strip().splitlines()
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 1 + len(result.curve)
    cells = lines[1].split(",")
    assert cells[1] == "naive" and int(cells[0]) == 0
    for cell in cells[3:]:
        float(cell)
    assert result.final_metrics["ndcg@10"] == pytest.approx(
        float(lines[-1].split(",")[6]))


def test_a_run_ends_on_a_curve_row_for_its_last_step(small_data):
    """total_steps=10 is no multiple of eval_every=4: the curve still ends on
    step 10, and the final metrics and estimate are step 10's, as a run that
    evaluates every step reads them. Evaluating draws on no training stream."""
    cfg = _small_cfg(algorithm="dla", total_steps=10, refresh_interval=10, eval_every=4)
    result = run_experiment(cfg, small_data)
    every = run_experiment(dataclasses.replace(cfg, eval_every=1), small_data)
    assert [row["step"] for row in result.curve] == [0, 4, 8, 10]
    assert result.curve == [every.curve[step] for step in (0, 4, 8, 10)]
    last = every.curve[10]
    assert result.final_metrics == {col: last[col] for col in training.METRIC_COLUMNS}
    assert result.final_estimate.weights.tobytes() == every.final_estimate.weights.tobytes()
    assert result.final_estimate.normalized()[0] == last["norm_prop@1"]
    assert every.curve[8]["norm_prop@1"] != last["norm_prop@1"]


def test_evaluate_ranker_agrees_with_policy_route(small_data):
    """Scoring a frozen ranker and scoring its policy snapshot must agree."""
    cfg = _small_cfg(total_steps=10, refresh_interval=10, eval_every=10)
    result = run_experiment(cfg, small_data)
    train_view = DatasetView(small_data.train)
    direct = evaluate_ranker(result.ranker, train_view)
    policy = LoggingPolicy.from_ranker(result.ranker, train_view)
    via_policy = _policy_metrics(policy)
    for key, value in direct.items():
        assert via_policy[key] == pytest.approx(value, abs=1e-12)


def test_forward_only_passes_leave_nothing_for_the_cycle_collector(small_data):
    """Readout, eval and policy refresh build no tape, so no reference cycles."""
    view = DatasetView(small_data.train)
    d = view.features.shape[-1]
    ranker = RankerMLP(d, np.random.default_rng(0))
    model = LPPModel(d, view.n_docs, np.random.default_rng(1))
    calls = [lambda: backdoor_estimate(model, view.flat_features()[:32]),
             lambda: evaluate_ranker(ranker, view),
             lambda: LoggingPolicy.from_ranker(ranker, view)]
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_learner_steps_leave_nothing_for_the_cycle_collector(small_data):
    """A full UPE step and a full DLA step free every graph they build by
    reference counting: backward consumes live and dead closures alike."""
    cfg = _small_cfg(algorithm="upe")
    policy, batch = _policy_and_batch(small_data, cfg, seed=56)
    upe = UPELearner(cfg, 5, 6, policy.view.flat_features()[:20])
    dla = DLALearner(cfg, 5, 6)
    gc.disable()
    try:
        for learner in (upe, dla):
            gc.collect()
            learner.step(batch)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("algorithm", ["upe", "dla", "naive"])
def test_memory_floor_counts_every_network_parameter_three_times(small_data, algorithm):
    """Value, gradient and AdaGrad accumulator of each parameter of the ranker
    and the LPP model: with no activation rows the floor is exactly that."""
    cfg = _small_cfg(algorithm=algorithm)
    view = DatasetView(small_data.train)
    learner = training._build_learner(cfg, view, 6, PositionBiasCurve.inverse_rank(6))
    params = [*learner.ranker.parameters(), *(learner.lpp.parameters() if algorithm == "upe"
                                              else ())]
    floor = training._memory_floor(cfg, view.dataset.feature_dim, 6, rows=0)
    assert floor == 24 * sum(p.data.size for p in params)


def test_run_is_refused_exactly_when_its_floor_passes_available_memory(small_data, monkeypatch):
    cfg = _small_cfg(algorithm="upe", total_steps=10, eval_every=10)
    floor = training._memory_floor(cfg, small_data.train.feature_dim, 6, rows=8 * 6)
    monkeypatch.setattr(training, "_available_memory", lambda: floor)
    run_experiment(cfg, small_data)
    monkeypatch.setattr(training, "_available_memory", lambda: floor - 1)
    with pytest.raises(ValueError, match="available memory"):
        run_experiment(cfg, small_data)


def test_available_memory_reads_memavailable_and_falls_back_to_physical(tmp_path):
    """MemAvailable counts what the host can hand out now, which a host busy
    with other work holds well below its physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:       8000000 kB\nMemFree:         100 kB\n"
                       "MemAvailable:       2048 kB\nBuffers:  12 kB\n")
    assert training._available_memory(str(meminfo)) == 2 * 2**20
    for text in ("MemTotal:       8000000 kB\n", "MemAvailable: lots\n", "MemAvailable:\n"):
        meminfo.write_text(text)
        assert training._available_memory(str(meminfo)) == physical
    assert training._available_memory(str(tmp_path / "missing")) == physical
    assert 0 < training._available_memory() <= physical


def test_memory_floor_of_the_embedding_that_was_oom_killed_is_hundreds_of_gib():
    """lpp_embed_dim=1e8 was killed by the kernel on an 8 GB host; its floor at
    the reference shapes is hundreds of GiB. Arithmetic only: nothing is built."""
    huge = ExperimentConfig(lpp_embed_dim=100_000_000)
    assert training._memory_floor(huge, 16, 10, rows=32 * 10) > 100 * 2**30
    assert training._memory_floor(ExperimentConfig(), 16, 10, rows=32 * 10) < 2**20


def test_shorter_curve_than_display_raises(small_data):
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        run_experiment(cfg, small_data, curve=PositionBiasCurve.inverse_rank(3))


def test_naive_matches_uniform_ipw_by_definition(small_data):
    cfg = _small_cfg(total_steps=10, refresh_interval=10, eval_every=10)
    result = run_experiment(cfg, small_data)
    assert np.array_equal(result.final_estimate.weights, np.ones(6))

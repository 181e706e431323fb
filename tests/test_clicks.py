"""Click simulator: closed-form values, Monte Carlo agreement, determinism."""

import numpy as np
import pytest

from helpers import examination_probability, expected_click_probability
from ultrlab.clicks import (
    PositionBiasCurve,
    SimulationConfig,
    perceived_relevance_probability,
    sample_click_matrix,
)
from ultrlab.data import Dataset
from ultrlab.training import DatasetView, LoggingPolicy


def _policy(doc_ids, first_features, labels):
    """A one-query linear policy that scores each document by its first feature."""
    n = len(doc_ids)
    features = np.zeros((1, n, 2))
    features[0, :, 0] = first_features
    ds = Dataset(features=features, labels=[labels], doc_ids=[doc_ids], query_ids=["q0"])
    return LoggingPolicy.from_linear(np.array([1.0, 0.0]), DatasetView(ds))


def test_examination_probability_values():
    curve = PositionBiasCurve.inverse_rank(10)
    assert examination_probability(curve, 1, eta=1.0) == 1.0
    assert examination_probability(curve, 2, eta=2.0) == 0.25
    for k in (1, 4, 10):
        assert examination_probability(curve, k, eta=0.0) == 1.0
    with pytest.raises(ValueError):
        examination_probability(curve, 11, eta=1.0)
    with pytest.raises(ValueError):
        examination_probability(curve, 0, eta=1.0)


def test_perceived_relevance_values():
    cfg = SimulationConfig()
    rel = perceived_relevance_probability(np.array([0, 2, 4]), cfg)
    assert rel[0] == pytest.approx(0.1, abs=1e-12)
    assert rel[1] == pytest.approx(0.28, abs=1e-12)
    assert rel[2] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        perceived_relevance_probability(np.array([5]), cfg)


def test_curve_validation():
    with pytest.raises(ValueError):
        PositionBiasCurve(values=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PositionBiasCurve(values=np.array([1.2]))
    with pytest.raises(ValueError):
        PositionBiasCurve(values=np.array([[1.0]]))
    with pytest.raises(ValueError):
        PositionBiasCurve(values=np.array([np.nan]))
    with pytest.raises(ValueError, match="n_positions must be >= 1"):
        PositionBiasCurve.inverse_rank(0)


def test_curve_from_file_skips_comments(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("# top rank\n1.0\n\n0.5 # half\n0.25\n")
    curve = PositionBiasCurve.from_file(path)
    assert np.array_equal(curve.values, np.array([1.0, 0.5, 0.25]))


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(eta=-0.5)
    with pytest.raises(ValueError):
        SimulationConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(top_n=0)


def test_rank_by_scores_breaks_ties_by_doc_id():
    """Displayed order is descending score; equal scores show in doc_id order."""
    policy = _policy(["b", "a", "c"], [1.0, 1.0, 2.0], [1, 2, 3])
    _, labels, scores = policy.displayed(np.array([0]), 3)
    assert np.array_equal(labels, np.array([[3, 2, 1]]))  # c, then a before b
    assert np.array_equal(scores, np.array([[2.0, 1.0, 1.0]]))


def test_everything_clicked_in_the_degenerate_limit():
    curve = PositionBiasCurve(values=np.ones(3))
    cfg = SimulationConfig(epsilon=0.0, top_n=3)
    clicks = sample_click_matrix(np.full((4, 3), 4), curve, cfg, np.random.default_rng(0))
    assert np.array_equal(clicks, np.ones((4, 3), dtype=np.int8))


def test_session_truncates_at_top_n():
    """Only the policy's first top_n documents are displayed and can be clicked."""
    policy = _policy(["d0", "d1", "d2", "d3"], [0.0, 1.0, 2.0, 3.0], [4, 3, 2, 1])
    cfg = SimulationConfig(top_n=2)
    feats, labels, _ = policy.displayed(np.array([0]), cfg.top_n)
    assert np.array_equal(labels, np.array([[1, 2]]))  # d3, d2
    assert np.array_equal(feats[0, :, 0], np.array([3.0, 2.0]))
    clicks = sample_click_matrix(labels, PositionBiasCurve.inverse_rank(4), cfg,
                                 np.random.default_rng(1))
    assert clicks.shape == (1, 2)


def test_session_rejects_ranking_longer_than_curve():
    curve = PositionBiasCurve.inverse_rank(2)
    with pytest.raises(ValueError):
        sample_click_matrix(np.array([[1, 2, 3]]), curve, SimulationConfig(top_n=3),
                            np.random.default_rng(0))


def test_clicks_never_exceed_examinations():
    labels = np.tile(np.array([0, 3, 1, 4, 2]), (200, 1))
    curve = PositionBiasCurve.inverse_rank(5)
    cfg = SimulationConfig(top_n=5)
    for seed in range(10):
        clicks = sample_click_matrix(labels, curve, cfg, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        examined = replay.random(labels.shape) < curve.examination(cfg.eta)
        assert np.all(clicks <= examined.astype(np.int8))


def test_identical_seeds_give_identical_sessions():
    labels = np.tile(np.array([2, 0, 4]), (20, 1))
    curve = PositionBiasCurve.inverse_rank(3)
    cfg = SimulationConfig(top_n=3)
    a = sample_click_matrix(labels, curve, cfg, np.random.default_rng(7))
    b = sample_click_matrix(labels, curve, cfg, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_click_matrix_validates_shape_and_curve_length():
    curve = PositionBiasCurve.inverse_rank(3)
    cfg = SimulationConfig()
    with pytest.raises(ValueError):
        sample_click_matrix(np.zeros(3), curve, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_click_matrix(np.zeros((2, 4)), curve, cfg, np.random.default_rng(0))


def test_click_matrix_refuses_nan_labels_and_keeps_empty_ones():
    """A NaN grade is no label: it is refused like one out of range, where it
    used to pass and give no click; a matrix with no sessions gives no clicks."""
    curve = PositionBiasCurve.inverse_rank(3)
    cfg = SimulationConfig(epsilon=1.0)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\]"):
        sample_click_matrix(np.full((4, 3), np.nan), curve, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\]"):
        perceived_relevance_probability(np.array([1.0, np.nan]), cfg)
    clicks = sample_click_matrix(np.zeros((0, 3)), curve, cfg, np.random.default_rng(0))
    assert clicks.shape == (0, 3) and clicks.dtype == np.int8
    assert perceived_relevance_probability(np.zeros((0, 3)), cfg).shape == (0, 3)


def test_click_rate_matches_noise_floor_over_positions():
    """All labels zero: the click rate at rank k is the floor times the bias."""
    n = 100_000
    curve = PositionBiasCurve.inverse_rank(5)
    cfg = SimulationConfig(top_n=5)
    labels = np.zeros((n, 5), dtype=np.int64)
    clicks = sample_click_matrix(labels, curve, cfg, np.random.default_rng(13))
    rate = clicks.mean(axis=0)
    for k in range(1, 6):
        p = 0.1 / k
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(rate[k - 1] - p) <= 3.0 * sigma, f"position {k}"


def test_click_rate_matches_expected_probability_per_grade():
    """Mixed grades: empirical rates against the closed-form product."""
    n = 100_000
    ranked = np.tile(np.array([4, 2, 0, 1]), (n, 1))
    curve = PositionBiasCurve.inverse_rank(4)
    cfg = SimulationConfig(top_n=4)
    clicks = sample_click_matrix(ranked, curve, cfg, np.random.default_rng(17))
    rate = clicks.mean(axis=0)
    for pos, label in enumerate([4, 2, 0, 1], start=1):
        p = expected_click_probability(label, pos, curve, cfg)
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert abs(rate[pos - 1] - p) <= 3.0 * sigma, f"position {pos}"


def test_vanishing_examination_bounds_click_rate():
    """A near-zero curve tail yields a click rate that stays near zero."""
    n = 1_000_000
    curve = PositionBiasCurve(values=np.array([1.0, 1e-6]))
    cfg = SimulationConfig(epsilon=0.0, top_n=2)
    labels = np.full((n, 2), 4, dtype=np.int64)
    clicks = sample_click_matrix(labels, curve, cfg, np.random.default_rng(19))
    assert clicks[:, 1].mean() <= 1e-6 + 3.0 * np.sqrt(1e-6 / n)


def test_expected_click_probability_composes_the_two_factors():
    curve = PositionBiasCurve.inverse_rank(6)
    cfg = SimulationConfig(eta=2.0)
    got = expected_click_probability(2, 3, curve, cfg)
    assert got == pytest.approx((1.0 / 9.0) * 0.28, abs=1e-12)

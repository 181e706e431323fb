"""Ranking metrics against brute-force references, plus propensity summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_err, brute_ndcg
from ultrlab.clicks import PositionBiasCurve
from ultrlab.metrics import propensity_error, ranking_metrics
from ultrlab.propensity import PropensityEstimate


def ndcg(labels, k):
    """nDCG@k of one list, scored as a 1-row matrix."""
    return float(ranking_metrics([labels], cutoffs=(k,))[f"ndcg@{k}"][0])


def err(labels, k):
    return float(ranking_metrics([labels], cutoffs=(k,))[f"err@{k}"][0])


def test_ideal_ordering_scores_one():
    for labels in ([4, 3, 2, 1, 0], [2, 2, 1], [4]):
        for k in (1, 2, 5, 10):
            assert ndcg(labels, k) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_hand_value():
    assert ndcg([0, 4], 2) == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)


def test_all_zero_labels_score_one_by_convention():
    assert ndcg([0, 0, 0], 3) == 1.0


def test_dcg_basics():
    """Gain 2^y - 1 and discount log2(rank + 1), read through the nDCG ratio."""
    want = (1.0 + 15.0 / np.log2(3.0)) / (15.0 + 1.0 / np.log2(3.0))
    assert ndcg([1, 4], 2) == pytest.approx(want, abs=1e-12)
    empty = ranking_metrics(np.zeros((2, 0)), cutoffs=(3,))
    assert np.array_equal(empty["ndcg@3"], [1.0, 1.0])
    assert np.array_equal(empty["err@3"], [0.0, 0.0])
    with pytest.raises(ValueError):
        ranking_metrics([[1]], cutoffs=(0,))


def test_err_single_top_grade():
    assert err([4], 1) == pytest.approx(15.0 / 16.0, abs=1e-12)


def test_err_all_zero():
    assert err([0, 0, 0], 3) == 0.0


def test_err_two_top_grades():
    want = 15.0 / 16.0 + 0.5 * (15.0 / 16.0) * (1.0 / 16.0)
    assert err([4, 4], 2) == pytest.approx(want, abs=1e-12)
    assert err([4, 4], 2) == pytest.approx(0.966796875, abs=1e-9)


def test_err_rejects_bad_labels():
    for bad in ([[5]], [[-1]], [[np.nan]]):
        with pytest.raises(ValueError):
            ranking_metrics(bad, cutoffs=(1,))
    with pytest.raises(ValueError):
        ranking_metrics([[1]], cutoffs=(1, 0))
    with pytest.raises(ValueError):
        ranking_metrics([3, 1, 0])


def test_metrics_match_brute_force_on_random_lists():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 5, size=n).tolist()
        k = int(rng.integers(1, 16))
        assert abs(ndcg(labels, k) - brute_ndcg(labels, k)) <= 1e-12
        assert abs(err(labels, k) - brute_err(labels, k)) <= 1e-12


def test_many_row_matrix_matches_brute_force_row_by_row():
    rng = np.random.default_rng(31)
    ranked = rng.integers(0, 5, size=(200, 12))
    ranked[:20] = 0
    ranked[20:40] = np.sort(ranked[20:40], axis=1)[:, ::-1]
    ranked[40:60, 3:] = 0
    cutoffs = (1, 2, 7, 12, 15)
    out = ranking_metrics(ranked, cutoffs=cutoffs)
    for k in cutoffs:
        assert out[f"ndcg@{k}"].shape == out[f"err@{k}"].shape == (200,)
        for q, row in enumerate(ranked.tolist()):
            assert abs(out[f"ndcg@{k}"][q] - brute_ndcg(row, k)) <= 1e-12
            assert abs(out[f"err@{k}"][q] - brute_err(row, k)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_err_nondecreasing_and_ndcg_bounded(labels):
    out = ranking_metrics([labels], cutoffs=range(1, len(labels) + 2))
    errs = [out[f"err@{k}"][0] for k in range(1, len(labels) + 1)]
    assert all(b >= a - 1e-15 for a, b in zip(errs, errs[1:]))
    for k in range(1, len(labels) + 2):
        assert 0.0 <= out[f"ndcg@{k}"][0] <= 1.0 + 1e-12


def test_ranking_metrics_keys():
    out = ranking_metrics([[3, 1, 0], [0, 1, 3]], cutoffs=(1, 3))
    assert list(out) == ["ndcg@1", "ndcg@3", "err@1", "err@3"]
    assert all(v.shape == (2,) for v in out.values())


def test_normalized_propensity_headline_value():
    est = PropensityEstimate.from_raw(PositionBiasCurve.inverse_rank(10).examination(1.0))
    got = est.normalized()
    assert got[0] == pytest.approx(10.0, abs=1e-12)
    assert got[-1] == 1.0


def test_normalized_propensity_of_uniform_is_all_ones():
    est = PropensityEstimate.uniform(6)
    assert np.array_equal(est.normalized(), np.ones(6))


def test_normalized_propensity_divides_by_rank_10_or_the_last_rank():
    est = PropensityEstimate(weights=np.array([1.0, 0.5, 0.25]))
    assert np.array_equal(est.normalized(), [4.0, 2.0, 1.0])
    long = PropensityEstimate(weights=np.repeat([1.0, 0.5, 0.25], [9, 1, 2]))
    assert np.array_equal(long.normalized(), np.repeat([2.0, 1.0, 0.5], [9, 1, 2]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=14),
       st.floats(0.1, 100.0))
def test_normalized_propensity_scale_invariance(weights, c):
    w = np.array(weights)
    a = PropensityEstimate.from_raw(w).normalized()
    b = PropensityEstimate.from_raw(c * w).normalized()
    assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_propensity_error_zero_at_truth():
    curve = PositionBiasCurve.inverse_rank(10)
    est = PropensityEstimate.from_raw(curve.examination(1.0))
    assert propensity_error(est, curve, eta=1.0) == pytest.approx(0.0, abs=1e-12)


def test_propensity_error_ignores_uniform_scaling():
    """An estimate is pinned to 1 at rank 1 and a curve need not be; the
    comparison rescales both, so a uniformly scaled truth scores 0."""
    curve = PositionBiasCurve.inverse_rank(5)
    est = PropensityEstimate.from_raw(curve.examination(1.0))
    scaled = PositionBiasCurve(0.5 * curve.values)
    assert propensity_error(est, scaled, eta=1.0) == pytest.approx(0.0, abs=1e-12)


def test_propensity_error_single_doubled_coordinate():
    curve = PositionBiasCurve.inverse_rank(10)
    w = curve.examination(1.0).copy()
    w[0] *= 2.0
    est = PropensityEstimate.from_raw(w)
    assert propensity_error(est, curve, eta=1.0) == pytest.approx(0.1, abs=1e-12)


def test_propensity_error_rejects_short_truth():
    curve = PositionBiasCurve.inverse_rank(3)
    with pytest.raises(ValueError):
        propensity_error(PropensityEstimate.uniform(5), curve, eta=1.0)

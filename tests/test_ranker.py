"""The relevance scorer and its two listwise losses."""

import math

import numpy as np
import pytest

from ultrlab.autodiff import Tensor, save_params
from ultrlab.clicks import SimulationConfig
from ultrlab.propensity import PropensityEstimate
from helpers import full_information_loss
from ultrlab.ranker import DEFAULT_HIDDEN, RankerMLP, ipw_ranking_loss


def make_ranker(seed=0, feature_dim=4, hidden=(6, 5), dropout=0.1):
    return RankerMLP(feature_dim, np.random.default_rng(seed),
                     hidden=hidden, dropout=dropout)


def test_zeroed_ranker_scores_zero():
    ranker = make_ranker()
    for p in ranker.parameters():
        p.data[:] = 0.0
    out = ranker.forward(np.random.default_rng(1).normal(size=(5, 4)))
    assert np.array_equal(out.data, np.zeros((5, 1)))


def test_forward_validation():
    ranker = make_ranker()
    for bad in (np.zeros((2, 3)), np.zeros((0, 4)), np.zeros(4)):
        with pytest.raises(ValueError) as from_forward:
            ranker.forward(bad)
        # The tape-free eval path rejects the same inputs with the same message.
        with pytest.raises(ValueError) as from_score:
            ranker.score(bad)
        assert str(from_score.value) == str(from_forward.value)
    with pytest.raises(ValueError):
        RankerMLP(0, np.random.default_rng(0))


def _scores(ranker, X, rng=None):
    return ranker.forward(X, rng=rng).data.reshape(-1)


def test_scoring_is_per_document():
    """Each row's score depends on that row alone, so scoring a permuted
    stack permutes the scores."""
    ranker = make_ranker(seed=2)
    X = np.random.default_rng(3).normal(size=(6, 4))
    perm = np.array([3, 0, 5, 1, 4, 2])
    scores = _scores(ranker, X)
    assert np.array_equal(_scores(ranker, X[perm]), scores[perm])


def test_eval_scoring_is_deterministic():
    ranker = make_ranker(seed=4, dropout=0.5)
    X = np.random.default_rng(5).normal(size=(3, 4))
    assert np.array_equal(_scores(ranker, X), _scores(ranker, X))
    assert np.array_equal(ranker.score(X).reshape(-1), _scores(ranker, X))


def test_train_scoring_uses_dropout():
    ranker = make_ranker(seed=6, dropout=0.5)
    X = np.random.default_rng(7).normal(size=(3, 4))
    a = _scores(ranker, X, rng=np.random.default_rng(8))
    b = _scores(ranker, X, rng=np.random.default_rng(9))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("hidden", [(), (8, 6), DEFAULT_HIDDEN])
def test_snapshot_round_trip(tmp_path, hidden):
    """from_snapshot reads the layer widths back from the saved weights and
    restores every parameter bit for bit, biases included."""
    ranker = make_ranker(seed=3, hidden=hidden)
    rng = np.random.default_rng(4)
    for p in ranker.parameters():
        p.data = rng.normal(size=p.data.shape)
    path = tmp_path / "model.npz"
    save_params(path, ranker.parameters())
    back = RankerMLP.from_snapshot(path, 4)
    assert [p.name for p in back.parameters()] == [p.name for p in ranker.parameters()]
    for got, want in zip(back.parameters(), ranker.parameters()):
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()
    X = rng.normal(size=(7, 4))
    assert np.array_equal(back.score(X), ranker.score(X))


def test_ipw_loss_hand_values():
    scores = make_ranker().forward(np.zeros((3, 4))).reshape(1, 3)
    uniform = PropensityEstimate.uniform(3)
    no_clicks = ipw_ranking_loss(scores, np.zeros((1, 3)), uniform)
    assert float(no_clicks.data) == 0.0
    one = ipw_ranking_loss(scores, np.array([[1.0, 0.0, 0.0]]), uniform)
    assert float(one.data) == pytest.approx(math.log(3.0), abs=1e-12)


def test_ipw_loss_reweights_clicks():
    """A click at a half-examined rank counts twice: zero scores over two
    ranks give (1 + 2) * ln 2."""
    scores = make_ranker().forward(np.zeros((2, 4))).reshape(1, 2)
    est = PropensityEstimate(weights=np.array([1.0, 0.5]))
    loss = ipw_ranking_loss(scores, np.array([[1.0, 1.0]]), est)
    assert float(loss.data) == pytest.approx(3 * math.log(2.0), abs=1e-12)


def test_ipw_loss_refuses_longer_estimates():
    """Every learner's estimate has one weight per displayed position, so a
    longer one is a caller's mistake, not a prefix to read."""
    scores = make_ranker().forward(np.zeros((2, 4))).reshape(1, 2)
    with pytest.raises(ValueError, match="covers 3 positions, the list has 2"):
        ipw_ranking_loss(scores, np.array([[1.0, 1.0]]),
                         PropensityEstimate(weights=np.array([1.0, 0.5, 0.1])))


def test_ipw_loss_is_shift_invariant():
    rng = np.random.default_rng(10)
    ranker = make_ranker(seed=11, dropout=0.0)
    X = rng.normal(size=(8, 4))
    clicks = (rng.random((2, 4)) < 0.5).astype(float)
    est = PropensityEstimate(weights=np.array([1.0, 0.6, 0.3, 0.2]))
    base = ipw_ranking_loss(ranker.forward(X).reshape(2, 4), clicks, est)
    shifted = ipw_ranking_loss(ranker.forward(X).reshape(2, 4) + Tensor(np.full(4, 41.5)),
                               clicks, est)
    assert float(shifted.data) == pytest.approx(float(base.data), abs=1e-9)


def test_ipw_loss_validation():
    scores = make_ranker().forward(np.zeros((4, 4))).reshape(2, 2)
    with pytest.raises(ValueError):
        ipw_ranking_loss(scores, np.zeros((1, 2)), PropensityEstimate.uniform(2))
    with pytest.raises(ValueError):
        ipw_ranking_loss(scores, np.zeros((2, 2)), PropensityEstimate(weights=[1.0]))
    with pytest.raises(ValueError):
        ipw_ranking_loss(scores.reshape(4), np.zeros(4), PropensityEstimate.uniform(4))


def test_full_information_loss_weights_by_perceived_relevance():
    """Zero scores make every -log softmax equal, so the loss is the total
    perceived relevance times ln(list length) / rows."""
    config = SimulationConfig(epsilon=0.1)
    scores = make_ranker().forward(np.zeros((3, 4))).reshape(1, 3)
    labels = np.array([[4, 2, 0]])
    loss = full_information_loss(scores, labels, config)
    rel = 0.1 + 0.9 * (np.array([15.0, 3.0, 0.0]) / 15.0)
    assert float(loss.data) == pytest.approx(rel.sum() * math.log(3.0),
                                             abs=1e-12)
    with pytest.raises(ValueError):
        full_information_loss(scores, np.array([[4, 2]]), config)

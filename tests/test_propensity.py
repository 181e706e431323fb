"""Propensity estimation: both estimators, the two-step contract, adjustment."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ultrlab.autodiff import AdaGrad, Tensor, weighted_listwise_ce
from helpers import (
    backdoor_adjust,
    clipped_inverse_weights_mask_checks,
    joint_positions_mask_checks,
    perceived_relevance_mask_checks,
    propensity_from_raw_mask_checks,
    propensity_weights_mask_checks,
)
from ultrlab.clicks import PositionBiasCurve, SimulationConfig, perceived_relevance_probability
from ultrlab.data import Y_MAX
from ultrlab.propensity import (
    TARGET_VARIANTS,
    FreezeContractError,
    LPPModel,
    PositionPropensityModel,
    PropensityEstimate,
    backdoor_estimate,
    clipped_inverse_weights,
    confounding_effect_step,
    dla_propensity,
    irw_propensity_loss,
    joint_propensity_step,
    position_targets_from_base,
    relevance_weights_from_scores,
    target_weights,
)


def small_lpp(seed=0, feature_dim=3, n_positions=4, **kw):
    kw.setdefault("embed_dim", 4)
    kw.setdefault("encoder_hidden", (5,))
    kw.setdefault("ffn_hidden", (4,))
    return LPPModel(feature_dim, n_positions, np.random.default_rng(seed), **kw)


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------- estimates


def test_estimate_validation():
    with pytest.raises(ValueError):
        PropensityEstimate(weights=np.array([0.9, 0.5]))
    with pytest.raises(ValueError):
        PropensityEstimate(weights=np.array([1.0, 1.2]))
    with pytest.raises(ValueError):
        PropensityEstimate(weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PropensityEstimate(weights=np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError):
        PropensityEstimate(weights=np.array([]))
    with pytest.raises(ValueError, match="finite"):
        PropensityEstimate(weights=np.array([1.0, np.nan]))
    est = PropensityEstimate(weights=np.array([1.0, 0.25]))
    assert len(est) == 2


def test_from_raw_normalizes_and_saturates():
    est = PropensityEstimate.from_raw(np.array([4.0, 2.0, 6.0]))
    assert np.array_equal(est.weights, np.array([1.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        PropensityEstimate.from_raw(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PropensityEstimate.from_raw(np.array([]))
    for raw in ([1.0, np.nan], [1.0, np.inf], [np.inf, 1.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                PropensityEstimate.from_raw(np.array(raw))


def test_uniform_and_true_curve():
    assert np.array_equal(PropensityEstimate.uniform(3).weights, np.ones(3))
    est = PropensityEstimate.from_raw(PositionBiasCurve.inverse_rank(4).examination(2.0))
    assert np.allclose(est.weights, [1.0, 0.25, 1 / 9, 1 / 16], atol=1e-15)


def test_estimate_csv_round_trips():
    est = PropensityEstimate(weights=np.array([1.0, 0.5, 0.2]))
    lines = est.as_csv().strip().splitlines()
    assert lines[0] == "position,weight,normalized_weight_ref10"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(p[0]) for p in parsed] == [1, 2, 3]
    assert [float(p[1]) for p in parsed] == [1.0, 0.5, 0.2]
    # shorter than 10 ranks: the reference column normalizes by the last rank
    assert [float(p[2]) for p in parsed] == [5.0, 2.5, 1.0]


def test_clipped_inverse_weights():
    inv = clipped_inverse_weights(np.array([1.0, 0.5, 0.04]), tau=0.05)
    assert np.allclose(inv, [1.0, 2.0, 20.0], atol=1e-15)
    assert np.allclose(clipped_inverse_weights(np.array([0.5, 0.25]), tau=0.05),
                       [1.0, 2.0])
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([]))
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([[1.0, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([1.0]), tau=0.0)
    with pytest.raises(ValueError):
        clipped_inverse_weights(np.array([1.0]), tau=1.5)


# Finite edges alone, so that checks past the finiteness check are reached too.
_FINITE_EDGES = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 0.5, 1.0, np.nextafter(1.0, 2.0),
                                 float(Y_MAX), np.nextafter(Y_MAX, np.inf), 1e308, -1e308])
_BOUND_VALUES = st.one_of(_FINITE_EDGES, st.sampled_from([np.nan, np.inf, -np.inf]),
                          st.floats(allow_nan=True, allow_infinity=True))
_SHAPES = array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)


def _outcome(check, *args):
    """The bits a check returns, or the type and message of its refusal."""
    try:
        return "ok", np.asarray(check(*args)).tobytes()
    except (ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", ["estimate", "from_raw", "clipped", "labels", "positions"])
def test_bound_checks_refuse_what_the_mask_checks_refused(name, data):
    """Each check that reads an array's bounds once accepts and refuses the
    inputs its mask-per-condition oracle does, with the same message first and
    the same bits out: NaN, infinities, signed zeros, negatives, values just
    above 1 and above Y_MAX, empty, 0-d and 2-D arrays. The one deliberate
    difference: a NaN label, which the oracle let through, is refused."""
    if name == "positions":
        model = small_lpp(n_positions=3)
        pos = data.draw(arrays(np.int64, _SHAPES, elements=st.integers(-2, 4)), label="pos")
        rows = pos.shape[0] if pos.ndim == 1 and data.draw(st.booleans()) else (
            data.draw(st.integers(0, 3), label="rows"))
        args = (np.zeros((rows, 3)), pos)

        def new(features, positions):
            model.forward_joint(features, positions)
            return np.asarray(positions, dtype=np.int64)
        oracle = partial(joint_positions_mask_checks, 3)
    else:
        values = data.draw(st.sampled_from([_FINITE_EDGES, _BOUND_VALUES]), label="values")
        a = data.draw(arrays(np.float64, _SHAPES, elements=values), label="a")
        if a.size and data.draw(st.booleans(), label="first is 1"):
            a.flat[0] = 1.0
        cfg = SimulationConfig()
        new, oracle = {
            "estimate": (lambda w: PropensityEstimate(weights=w).weights,
                         propensity_weights_mask_checks),
            "from_raw": (lambda w: PropensityEstimate.from_raw(w).weights,
                         propensity_from_raw_mask_checks),
            "clipped": (clipped_inverse_weights, clipped_inverse_weights_mask_checks),
            "labels": (lambda y: perceived_relevance_probability(y, cfg),
                       lambda y: perceived_relevance_mask_checks(y, cfg)),
        }[name]
        args = (a,)
    with np.errstate(all="ignore"):
        want, got = _outcome(oracle, *args), _outcome(new, *args)
    if name == "labels" and want[0] == "ok" and np.isnan(args[0]).any():
        want = ("ValueError", f"labels must lie in [0, {Y_MAX}]")
    assert got == want


# ------------------------------------------------------- position-only model


def test_position_model_batch_scores_shapes():
    model = PositionPropensityModel(4)
    out = model.batch_scores(3)
    assert out.data.shape == (3, 4)
    assert np.array_equal(out.data, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        PositionPropensityModel(0)


def test_dla_propensity_known_values():
    model = PositionPropensityModel(2)
    assert np.array_equal(dla_propensity(model).weights, np.ones(2))
    model.logits.data[:] = np.array([[math.log(2.0), 0.0]])
    assert np.allclose(dla_propensity(model).weights, [1.0, 0.5], atol=1e-15)
    single = PositionPropensityModel(1)
    assert np.array_equal(dla_propensity(single).weights, np.array([1.0]))


def test_irw_loss_hand_values():
    model = PositionPropensityModel(2)
    scores = model.batch_scores(1)
    none = irw_propensity_loss(scores, np.zeros((1, 2)), np.full((1, 2), 0.5))
    assert float(none.data) == 0.0
    one = irw_propensity_loss(model.batch_scores(1), np.array([[1.0, 0.0]]),
                              np.full((1, 2), 0.5))
    assert float(one.data) == pytest.approx(math.log(2.0), abs=1e-12)
    both = irw_propensity_loss(model.batch_scores(1), np.array([[1.0, 1.0]]),
                               np.array([[2 / 3, 1 / 3]]))
    assert float(both.data) == pytest.approx(3 * math.log(2.0), abs=1e-12)


def test_irw_loss_validation():
    model = PositionPropensityModel(3)
    with pytest.raises(ValueError):
        irw_propensity_loss(model.batch_scores(1), np.zeros((1, 2)),
                            np.full((1, 3), 0.3))
    with pytest.raises(ValueError):
        irw_propensity_loss(model.batch_scores(1), np.zeros((1, 3)),
                            np.array([[0.0, 0.5, 0.5]]))


def test_irw_loss_trains_toward_the_click_skew():
    """Clicks concentrated at rank 1 with flat relevance push logit 1 up."""
    rng = np.random.default_rng(5)
    model = PositionPropensityModel(3)
    opt = AdaGrad(lr=0.1)
    rel = np.full((8, 3), 1 / 3)
    for _ in range(200):
        clicks = (rng.random((8, 3)) < np.array([0.9, 0.3, 0.1])).astype(float)
        opt.minimize(irw_propensity_loss(model.batch_scores(8), clicks, rel),
                     model.parameters())
    est = dla_propensity(model)
    assert est.weights[0] == 1.0
    assert est.weights[1] > est.weights[2]
    assert est.weights[1] < 0.75


def test_relevance_weights_rows_sum_to_one():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 7)) * 10
    w = relevance_weights_from_scores(z)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w > 0)
    shifted = relevance_weights_from_scores(z + 123.0)
    assert np.allclose(w, shifted, atol=1e-12)
    one = relevance_weights_from_scores(np.array([0.0, math.log(3.0)]))
    assert one.shape == (2,)
    assert np.allclose(one, [0.25, 0.75], atol=1e-12)


# ------------------------------------------------------------ target weights


def test_target_variants_constant():
    assert TARGET_VARIANTS == ("logging_scores", "mrr", "dcg")


def test_target_weights_fixed_profiles():
    mrr = target_weights("mrr", None, 2, 3)
    profile = np.array([1.0, 0.5, 1 / 3])
    assert np.allclose(mrr, np.tile(softmax(profile), (2, 1)), atol=1e-15)
    dcg = target_weights("dcg", None, 1, 3)
    profile = np.array([1.0, 1 / math.log2(3.0), 0.5])
    assert np.allclose(dcg, softmax(profile)[None], atol=1e-15)


def test_target_weights_compress_logging_scores():
    """Policy scores pass through a softmax before becoming targets, so the
    target scores live in (0, 1] and the weights stay within one nat of
    uniform however wide the raw scores are."""
    z = np.array([[40.0, 0.0, -40.0], [3.0, 2.0, 1.0]])
    w = target_weights("logging_scores", z, 2, 3)
    assert np.allclose(w, softmax(softmax(z)), atol=1e-15)
    assert w.max() / w.min() <= math.e + 1e-12
    extreme = target_weights("logging_scores",
                             np.array([[1e6, 0.0, -1e6]]), 1, 3)
    assert np.all(np.isfinite(extreme))
    assert extreme.max() / extreme.min() <= math.e + 1e-12


def test_target_weights_validation():
    with pytest.raises(ValueError):
        target_weights("logging_scores", None, 2, 3)
    with pytest.raises(ValueError):
        target_weights("logging_scores", np.zeros((2, 4)), 2, 3)
    with pytest.raises(ValueError):
        target_weights("ndcg", None, 2, 3)


def test_listwise_ce_minimum_is_the_target_entropy():
    """With logits equal to log target weights the loss sits exactly at the
    entropy of the targets, the global minimum of a softmax cross-entropy."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.dirichlet(np.ones(5))[None]
        at_min = weighted_listwise_ce(Tensor(np.log(w)), w)
        entropy = -(w * np.log(w)).sum()
        assert float(at_min.data) == pytest.approx(entropy, abs=1e-12)
        elsewhere = weighted_listwise_ce(Tensor(rng.normal(size=(1, 5))), w)
        assert float(elsewhere.data) >= entropy - 1e-12


# ----------------------------------------------------------------- LPP model


def test_lpp_joint_equals_confounder_at_init():
    """Zero position embeddings add nothing, so both forwards coincide."""
    model = small_lpp(seed=1)
    X = np.random.default_rng(2).normal(size=(6, 3))
    pos = np.array([0, 1, 2, 3, 0, 1])
    joint = model.forward_joint(X, pos)
    conf = model.forward_confounder(X)
    assert np.array_equal(joint.data, conf.data)


def test_lpp_forward_validation():
    model = small_lpp()
    X = np.zeros((2, 3))
    with pytest.raises(ValueError):
        model.forward_joint(X, np.array([0, 4]))
    with pytest.raises(ValueError):
        model.forward_joint(X, np.array([0, -1]))
    with pytest.raises(ValueError):
        model.forward_joint(X, np.array([0]))
    with pytest.raises(ValueError):
        LPPModel(0, 3, np.random.default_rng(0))


def test_lpp_parameter_partition():
    model = small_lpp()
    names = {p.name for p in model.parameters()}
    assert {p.name for p in model.g_pos} == {"lpp.encoder_p"}
    assert all(n.startswith(("lpp.encoder_d", "lpp.ffn"))
               for n in {p.name for p in model.g_pt})
    assert len(names) == len(model.parameters())


def test_confounder_forward_scalar_behaviour():
    model = small_lpp(seed=4)
    x = np.array([[0.3, -0.2, 0.9]])

    def score(features):
        return float(model.forward_confounder(features).data.reshape(-1)[0])

    a = score(x)
    assert a == score(x)
    assert a != score(x + 0.5)
    for p in model.g_pt:
        p.data[:] = 0.0
    assert score(x) == 0.0


def test_confounding_step_moves_only_the_document_pathway():
    model = small_lpp(seed=6)
    opt = AdaGrad(lr=0.05)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(4, 4, 3))
    scores = rng.normal(size=(4, 4))
    table_before = model.position_table.data.copy()
    pathway_before = [p.data.copy() for p in model.g_pt]
    loss = confounding_effect_step(model, opt, X, scores)
    assert np.isfinite(loss)
    assert np.array_equal(model.position_table.data, table_before)
    assert model.position_table not in opt.state
    assert any(not np.array_equal(p.data, before)
               for p, before in zip(model.g_pt, pathway_before))
    with pytest.raises(ValueError):
        confounding_effect_step(model, opt, X.reshape(16, 3), scores)


def test_position_targets_from_base():
    base = PositionPropensityModel(3)
    assert np.allclose(position_targets_from_base(base),
                       np.full(3, -math.log(3.0)), atol=1e-15)
    base.logits.data[:] = np.array([[math.log(2.0), 0.0, 0.0]])
    targets = position_targets_from_base(base)
    assert np.allclose(targets, np.log([0.5, 0.25, 0.25]), atol=1e-12)
    base.logits.data += 17.0
    assert np.allclose(position_targets_from_base(base), targets, atol=1e-12)


def test_joint_step_detects_a_pathway_update(monkeypatch):
    """A backward that ignores the leaf set and an optimizer that ignores the
    parameters it is given together trip the check."""
    model = small_lpp(seed=9)
    opt = AdaGrad(lr=0.05)
    X = np.random.default_rng(10).normal(size=(2, 4, 3))
    targets = np.log(softmax(np.array([1.0, 0.5, 0.2, 0.1])))
    backward_all, step_all = Tensor.backward, AdaGrad.step
    monkeypatch.setattr(Tensor, "backward",
                        lambda self, leaves: backward_all(self, model.parameters()))
    monkeypatch.setattr(AdaGrad, "step", lambda self, params: step_all(self, model.parameters()))
    with pytest.raises(FreezeContractError):
        joint_propensity_step(model, opt, X, targets)


def test_joint_step_accepts_a_pathway_holding_nan():
    """A NaN the step leaves alone keeps its bits, so it is no change."""
    model = small_lpp(seed=9)
    model.encoder_d.layers[0].W.data[0, 0] = np.nan
    pathway_before = [p.data.tobytes() for p in model.g_pt]
    X = np.random.default_rng(10).normal(size=(2, 4, 3))
    targets = np.log(softmax(np.array([1.0, 0.5, 0.2, 0.1])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        joint_propensity_step(model, AdaGrad(lr=0.05), X, targets)
    assert [p.data.tobytes() for p in model.g_pt] == pathway_before


def test_joint_step_detects_a_sign_flip_of_zero(monkeypatch):
    """-0.0 == +0.0 as values; a step that flips a zero bias's sign still
    changed the pathway's bits."""
    model = small_lpp(seed=9)
    bias = model.encoder_d.layers[0].b
    assert bias.data[0].tobytes() == np.float64(0.0).tobytes()
    X = np.random.default_rng(10).normal(size=(2, 4, 3))
    targets = np.log(softmax(np.array([1.0, 0.5, 0.2, 0.1])))
    step = AdaGrad.step

    def step_and_flip(self, params):
        step(self, params)
        bias.data[0] = -0.0
    monkeypatch.setattr(AdaGrad, "step", step_and_flip)
    with pytest.raises(FreezeContractError, match="lpp.encoder_d.l0.b"):
        joint_propensity_step(model, AdaGrad(lr=0.05), X, targets)


def test_joint_step_honours_the_freeze_bitwise():
    """With no setup by the caller the step moves the table alone: the
    pathway gets no gradient, its bits do not change, and the shared
    optimizer makes it no accumulator."""
    model = small_lpp(seed=10)
    opt = AdaGrad(lr=0.05)
    X = np.random.default_rng(11).normal(size=(2, 4, 3))
    targets = np.log(softmax(np.array([1.0, 0.5, 0.2, 0.1])))
    pathway_before = [p.data.copy() for p in model.g_pt]
    table_before = model.position_table.data.copy()
    loss = joint_propensity_step(model, opt, X, targets)
    assert np.isfinite(loss)
    for p, before in zip(model.g_pt, pathway_before):
        assert p.grad is None
        assert np.array_equal(p.data, before)
        assert p not in opt.state
    assert not np.array_equal(model.position_table.data, table_before)


def test_frozen_joint_step_forms_no_pathway_gradient_on_the_default_model():
    """The joint step backpropagates through the head's one node to its input
    only: after a confounding step filled the pathway's gradients and they
    were cleared, every ``g_pt`` parameter still has ``.grad is None``."""
    model = LPPModel(3, 4, np.random.default_rng(12))
    opt = AdaGrad(lr=0.05)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(3, 4, 3))
    confounding_effect_step(model, opt, X, rng.normal(size=(3, 4)))
    assert all(p.grad is not None for p in model.g_pt)
    for p in model.g_pt:
        p.grad = None
    joint_propensity_step(model, opt, X, np.log(softmax([1.0, 0.5, 0.2, 0.1])))
    for p in model.g_pt:
        assert p.grad is None, p.name
    assert model.position_table.grad is not None


def test_joint_step_without_enforcement_moves_the_pathway():
    model = small_lpp(seed=12)
    opt = AdaGrad(lr=0.05)
    X = np.random.default_rng(13).normal(size=(2, 4, 3))
    targets = np.log(softmax(np.array([1.0, 0.5, 0.2, 0.1])))
    pathway_before = [p.data.copy() for p in model.g_pt]
    joint_propensity_step(model, opt, X, targets, enforce_freeze=False)
    assert any(not np.array_equal(p.data, before)
               for p, before in zip(model.g_pt, pathway_before))


def test_joint_step_target_shapes():
    model = small_lpp(seed=14)
    opt = AdaGrad(lr=0.05)
    X = np.random.default_rng(15).normal(size=(2, 4, 3))
    joint_propensity_step(model, opt, X, np.zeros(4))
    with pytest.raises(ValueError):
        joint_propensity_step(model, opt, X, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        joint_propensity_step(model, opt, X, np.zeros(3))
    with pytest.raises(ValueError):
        joint_propensity_step(model, opt, X.reshape(8, 3), np.zeros(4))


def test_alternating_steps_keep_the_partition_separate():
    """Across interleaved iterations each step touches only its own half."""
    model = small_lpp(seed=16)
    opt = AdaGrad(lr=0.05)
    rng = np.random.default_rng(17)
    targets = np.log(softmax(np.array([1.0, 0.6, 0.4, 0.2])))
    for _ in range(3):
        X = rng.normal(size=(3, 4, 3))
        scores = rng.normal(size=(3, 4))
        table = model.position_table.data.copy()
        confounding_effect_step(model, opt, X, scores)
        assert np.array_equal(model.position_table.data, table)
        pathway = [p.data.copy() for p in model.g_pt]
        joint_propensity_step(model, opt, X, targets)
        for p, before in zip(model.g_pt, pathway):
            assert np.array_equal(p.data, before)


# --------------------------------------------------------------- adjustment


def test_backdoor_adjust_is_exp_head_for_one_document():
    model = small_lpp(seed=18)
    x = np.random.default_rng(19).normal(size=(1, 3))
    for k in (1, 4):
        head = model.forward_joint(x, np.array([k - 1])).data.reshape(-1)[0]
        assert backdoor_adjust(model, x, k) == pytest.approx(
            math.exp(head), abs=1e-15)


def test_backdoor_adjust_is_the_geometric_mean():
    """Averaging on the log scale makes the two-document rate sqrt(a * b)."""
    model = small_lpp(seed=20)
    rng = np.random.default_rng(21)
    a, b = rng.normal(size=(2, 3))
    rate_a = backdoor_adjust(model, a[None], 2)
    rate_b = backdoor_adjust(model, b[None], 2)
    both = backdoor_adjust(model, np.stack([a, b]), 2)
    assert both == pytest.approx(math.sqrt(rate_a * rate_b), abs=1e-12)
    assert both == backdoor_adjust(model, np.stack([b, a]), 2)


def test_backdoor_adjust_validation():
    model = small_lpp(seed=22)
    X = np.zeros((2, 3))
    with pytest.raises(ValueError):
        backdoor_adjust(model, X, 0)
    with pytest.raises(ValueError):
        backdoor_adjust(model, X, 5)
    with pytest.raises(ValueError):
        backdoor_adjust(model, np.zeros((0, 3)), 1)
    with pytest.raises(ValueError):
        backdoor_adjust(model, np.zeros(3), 1)


def test_backdoor_estimate_matches_per_rank_adjustment():
    """The per-rank blocks of the estimate and the taped rank-at-a-time route
    must agree."""
    model = small_lpp(seed=23)
    rng = np.random.default_rng(24)
    for p in model.g_pos:
        p.data[:] = 0.3 * rng.normal(size=p.data.shape)
    X = rng.normal(size=(5, 3))
    est = backdoor_estimate(model, X)
    raw = np.array([backdoor_adjust(model, X, k) for k in range(1, 5)])
    reference = PropensityEstimate.from_raw(raw)
    assert np.allclose(est.weights, reference.weights, atol=1e-12)


def test_backdoor_estimate_is_flat_for_zero_embeddings():
    model = small_lpp(seed=25)
    X = np.random.default_rng(26).normal(size=(4, 3))
    assert np.array_equal(backdoor_estimate(model, X).weights, np.ones(4))


def test_backdoor_estimate_validation():
    model = small_lpp(seed=27)
    with pytest.raises(ValueError):
        backdoor_estimate(model, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        backdoor_estimate(model, np.zeros(3))


def test_backdoor_estimate_refuses_rates_whose_exp_is_not_finite():
    """A log-rate past exp's range (or NaN) is refused by name, with no numpy
    warning; a head just inside the range still reads out."""
    model = small_lpp(seed=29)
    X = np.random.default_rng(30).normal(size=(4, 3))
    head = model.ffn.layers[-1].b.data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        head[:] = 700.0
        assert np.all(np.isfinite(backdoor_estimate(model, X).weights))
        head[:] = 720.0
        with pytest.raises(ValueError, match="^backdoor readout: "):
            backdoor_estimate(model, X)
        head[:] = np.nan
        with pytest.raises(ValueError, match="^backdoor readout: "):
            backdoor_estimate(model, X)


def test_joint_training_recovers_base_ratios():
    """Fitting position embeddings alone drives the backdoor-adjusted ratio
    to the base model's softmax ratio: targets log [2/3, 1/3] land the
    second-rank weight at 1/2."""
    model = small_lpp(seed=28, n_positions=2)
    opt = AdaGrad(lr=0.5)
    base = PositionPropensityModel(2)
    base.logits.data[:] = np.array([[0.0, -math.log(2.0)]])
    targets = position_targets_from_base(base)
    assert np.allclose(np.exp(targets), [2 / 3, 1 / 3], atol=1e-15)
    x = np.array([0.4, -0.1, 0.7])
    X = np.tile(x, (4, 2, 1))
    for _ in range(500):
        joint_propensity_step(model, opt, X, targets)
    est = backdoor_estimate(model, x[None])
    assert est.weights[1] == pytest.approx(0.5, abs=1e-3)

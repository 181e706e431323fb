"""Exact causal enumeration: frozen reference values and algebraic identities.

Events are index slices of the joint arrays on axes (x, r, k, e, c), with k
0-based; P(A | B) is the sum over A and B divided by the sum over B.
"""

import numpy as np
import pytest

from helpers import backdoor_adjustment_terms, random_causal_model
from ultrlab.causal import (
    ToyCausalModel,
    enumerate_joint,
    interventional_joint,
    overestimation_report,
)


def test_joint_table_sums_to_one():
    for seed in range(10):
        model = random_causal_model(np.random.default_rng(seed))
        table = enumerate_joint(model)
        assert abs(table.sum() - 1.0) <= 1e-12


def test_deterministic_model_concentrates_all_mass():
    model = ToyCausalModel(
        px=np.array([1.0, 0.0]),
        pr_given_x=np.array([1.0, 0.0]),
        pk_given_x=np.array([[1.0, 0.0], [0.0, 1.0]]),
        pe_given_k=np.array([1.0, 0.0]),
    )
    table = enumerate_joint(model)
    assert table.max() == 1.0
    assert np.count_nonzero(table) == 1
    assert table[0, 1, 0, 1, 1] == 1.0


def test_position_marginal_matches_hand_sum():
    rng = np.random.default_rng(31)
    model = random_causal_model(rng)
    table = enumerate_joint(model)
    for k in range(model.n_positions):
        want = float(np.sum(model.px * model.pk_given_x[:, k]))
        assert abs(table[:, :, k].sum() - want) <= 1e-12


def test_model_validates_cpts():
    valid = dict(px=np.array([0.5, 0.5]), pr_given_x=np.array([0.5, 0.5]),
                 pk_given_x=np.array([[0.5, 0.5], [0.5, 0.5]]), pe_given_k=np.array([1.0, 0.5]))
    ToyCausalModel(**valid)
    bad = [
        (dict(px=np.array([0.7, 0.7])), "px must sum to 1"),
        (dict(pr_given_x=np.array([0.5, 1.5])), r"pr_given_x must lie in \[0, 1\]"),
        # A 2-D examination table would broadcast into a joint that sums to 1
        # but pairs each position with the wrong examination probability.
        (dict(pr_given_x=np.array([0.9, 0.2]), pk_given_x=np.full((2, 4), 0.25),
              pe_given_k=np.array([[1.0, 0.5], [0.2, 0.1]])), "pk_given_x must be"),
        (dict(px=np.full(17, 1 / 17), pr_given_x=np.full(17, 0.5),
              pk_given_x=np.full((17, 2), 0.5)), "capped at 16 types x 8 positions"),
        (dict(pk_given_x=np.full((2, 9), 1 / 9), pe_given_k=np.full(9, 0.5)),
         "capped at 16 types x 8 positions"),
        (dict(pr_given_x=np.array([0.5, 0.5, 0.5])), "px and pr_given_x must be 1-D"),
        (dict(pc_given_er=np.full(3, 0.5)), r"pc_given_er must be \(2, 2\)"),
        (dict(pk_given_x=np.array([[0.5, 0.4], [0.5, 0.5]])),
         "every row of pk_given_x must sum to 1"),
    ]
    for override, message in bad:
        with pytest.raises(ValueError, match=message):
            ToyCausalModel(**{**valid, **override})
    for epsilon in (-0.1, 1.0):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\)"):
            ToyCausalModel.reference(epsilon=epsilon)


def test_click_forces_examination_under_noiseless_rule():
    table = enumerate_joint(ToyCausalModel.reference())
    clicked = table[..., 1]
    assert clicked[..., 1].sum() / clicked.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_on_full_assignment_is_zero_or_one():
    model = random_causal_model(np.random.default_rng(37), n_types=2, n_positions=2)
    table = enumerate_joint(model)
    given = np.zeros(table.shape, dtype=bool)
    given[0, 1, 0, 1, 1] = True  # x=0, r=1, k=1, e=1, c=1
    clicked = np.zeros(table.shape, dtype=bool)
    clicked[..., 1] = True
    assert table[given & clicked].sum() / table[given].sum() == 1.0
    assert table[given & ~clicked].sum() / table[given].sum() == 0.0


def test_reference_relevance_given_top_position():
    top = enumerate_joint(ToyCausalModel.reference())[:, :, 0]
    assert top[:, 1].sum() / top.sum() == pytest.approx(0.83, abs=1e-12)


def test_intervention_forces_the_position():
    """Slice k of the cut product is the joint of the model whose policy is a
    point mass at k: the mutilated-model route, bit for bit."""
    for seed in range(20):
        model = random_causal_model(np.random.default_rng(400 + seed))
        cut = interventional_joint(model)
        for k in range(model.n_positions):
            forced = np.zeros_like(model.pk_given_x)
            forced[:, k] = 1.0
            mutilated = enumerate_joint(ToyCausalModel(
                px=model.px, pr_given_x=model.pr_given_x, pk_given_x=forced,
                pe_given_k=model.pe_given_k, pc_given_er=model.pc_given_er))
            assert mutilated[:, :, k].sum() == pytest.approx(1.0, abs=1e-12)
            assert mutilated[:, :, k].tobytes() == cut[:, :, k].tobytes()


def test_reference_interventional_examination():
    cut = interventional_joint(ToyCausalModel.reference())
    assert cut[:, :, 0, 1].sum() == pytest.approx(1.0, abs=1e-12)
    assert cut[:, :, 1, 1].sum() == pytest.approx(0.5, abs=1e-12)


def test_no_confounding_makes_intervention_observational():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        model = random_causal_model(rng)
        flat = np.tile(rng.uniform(0.1, 1.0, model.n_positions),
                       (model.n_types, 1))
        flat /= flat.sum(axis=1, keepdims=True)
        model = ToyCausalModel(px=model.px, pr_given_x=model.pr_given_x,
                               pk_given_x=flat, pe_given_k=model.pe_given_k,
                               pc_given_er=model.pc_given_er)
        table = enumerate_joint(model)
        cut = interventional_joint(model)
        for k in range(model.n_positions):
            seen = table[:, :, k, :, 1]
            done = cut[:, :, k, :, 1]
            assert abs(seen[:, :, 1].sum() / seen.sum()
                       - done[:, :, 1].sum() / done.sum()) <= 1e-12


def test_decomposition_identity_over_random_models():
    """Conditioning on position and click decomposes over the document type."""
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        model = random_causal_model(rng)
        k = int(rng.integers(1, model.n_positions + 1)) - 1
        clicked = enumerate_joint(model)[:, :, k, :, 1]  # axes (x, r, e)
        direct = clicked[:, :, 1].sum() / clicked.sum()
        total = 0.0
        for x in range(model.n_types):
            total += (clicked[x, :, 1].sum() / clicked[x].sum()
                      * (clicked[x].sum() / clicked.sum()))
        assert abs(direct - total) <= 1e-12


def test_adjustment_identity_over_random_models():
    """The cut-graph answer equals the observational sum over the type prior."""
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        model = random_causal_model(rng)
        k = int(rng.integers(1, model.n_positions + 1)) - 1
        for c in (slice(None), slice(1, 2)):
            done = interventional_joint(model)[:, :, k, :, c]
            direct = done[:, :, 1].sum() / done.sum()
            summed = float(backdoor_adjustment_terms(model, k, c).sum())
            assert abs(direct - summed) <= 1e-12


def test_reference_overestimation_report():
    report = overestimation_report(ToyCausalModel.reference())
    assert report.observed_ctr[0] == pytest.approx(0.83, abs=1e-12)
    assert report.observed_ctr[1] == pytest.approx(0.135, abs=1e-12)
    assert report.estimand[0] == pytest.approx(0.83 / 0.55, abs=1e-12)
    assert report.causal[0] == pytest.approx(1.0, abs=1e-12)
    assert report.overestimation[0] == pytest.approx(83.0 / 55.0, abs=1e-9)
    estimand_ratio = report.estimand[0] / report.estimand[1]
    causal_ratio = report.causal[0] / report.causal[1]
    assert estimand_ratio == pytest.approx(83.0 / 13.5, abs=1e-9)
    assert causal_ratio == pytest.approx(2.0, abs=1e-12)


def test_weak_policy_collapses_the_overestimation():
    report = overestimation_report(ToyCausalModel.reference().with_weak_policy())
    assert np.allclose(report.estimand, report.causal, atol=1e-12)
    assert np.allclose(report.overestimation, 1.0, atol=1e-12)


def test_report_csv_parses_back():
    report = overestimation_report(ToyCausalModel.reference())
    lines = report.as_csv().strip().splitlines()
    assert lines[0] == "position,observed_ctr,estimand,causal,overestimation"
    for row, k in zip(lines[1:], (1, 2)):
        cells = row.split(",")
        assert int(cells[0]) == k
        values = [float(c) for c in cells[1:]]
        assert all(np.isfinite(values))
    table = report.as_text_table()
    assert "pos" in table and "1.509" in table

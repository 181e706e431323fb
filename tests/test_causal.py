"""Exact causal enumeration: frozen reference values and algebraic identities."""

import numpy as np
import pytest

from helpers import backdoor_adjustment_terms, random_causal_model
from ultrlab.causal import (
    JointTable,
    ToyCausalModel,
    conditional,
    enumerate_joint,
    intervene,
    interventional,
    overestimation_report,
)


def test_joint_table_sums_to_one():
    for seed in range(10):
        model = random_causal_model(np.random.default_rng(seed))
        table = enumerate_joint(model)
        assert abs(table.table.sum() - 1.0) <= 1e-12


def test_deterministic_model_concentrates_all_mass():
    model = ToyCausalModel(
        px=np.array([1.0, 0.0]),
        pr_given_x=np.array([1.0, 0.0]),
        pk_given_x=np.array([[1.0, 0.0], [0.0, 1.0]]),
        pe_given_k=np.array([1.0, 0.0]),
    )
    table = enumerate_joint(model).table
    assert table.max() == 1.0
    assert np.count_nonzero(table) == 1
    assert table[0, 1, 0, 1, 1] == 1.0


def test_position_marginal_matches_hand_sum():
    rng = np.random.default_rng(31)
    model = random_causal_model(rng)
    table = enumerate_joint(model)
    for k in range(1, model.n_positions + 1):
        want = float(np.sum(model.px * model.pk_given_x[:, k - 1]))
        assert abs(table.mass({"k": k}) - want) <= 1e-12


def test_joint_table_validates():
    with pytest.raises(ValueError):
        JointTable(table=np.zeros((2, 2, 2, 2)))
    bad = np.zeros((1, 2, 1, 2, 2))
    bad[0, 0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        JointTable(table=bad)


def test_model_validates_cpts():
    with pytest.raises(ValueError):
        ToyCausalModel(
            px=np.array([0.7, 0.7]),
            pr_given_x=np.array([0.5, 0.5]),
            pk_given_x=np.array([[0.5, 0.5], [0.5, 0.5]]),
            pe_given_k=np.array([1.0, 0.5]),
        )
    with pytest.raises(ValueError):
        ToyCausalModel(
            px=np.array([0.5, 0.5]),
            pr_given_x=np.array([0.5, 1.5]),
            pk_given_x=np.array([[0.5, 0.5], [0.5, 0.5]]),
            pe_given_k=np.array([1.0, 0.5]),
        )


def test_click_forces_examination_under_noiseless_rule():
    model = ToyCausalModel.reference()
    table = enumerate_joint(model)
    assert conditional(table, {"e": 1}, {"c": 1}) == pytest.approx(1.0, abs=1e-12)


def test_conditional_on_full_assignment_is_zero_or_one():
    model = random_causal_model(np.random.default_rng(37), n_types=2, n_positions=2)
    table = enumerate_joint(model)
    full = {"x": 0, "r": 1, "k": 1, "e": 1, "c": 1}
    assert conditional(table, {"c": 1}, full) == 1.0
    assert conditional(table, {"c": 0}, full) == 0.0


def test_conditional_contradicting_given_is_zero():
    table = enumerate_joint(ToyCausalModel.reference())
    assert conditional(table, {"e": 0}, {"e": 1}) == 0.0


def test_conditional_rejects_zero_mass_condition():
    model = ToyCausalModel.reference()
    table = enumerate_joint(model)
    with pytest.raises(ValueError):
        conditional(table, {"r": 1}, {"e": 0, "c": 1})


def test_reference_relevance_given_top_position():
    table = enumerate_joint(ToyCausalModel.reference())
    assert conditional(table, {"r": 1}, {"k": 1}) == pytest.approx(0.83, abs=1e-12)


def test_intervention_forces_the_position():
    model = ToyCausalModel.reference()
    cut = intervene(model, 2)
    table = enumerate_joint(cut)
    assert table.mass({"k": 2}) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        intervene(model, 3)


def test_reference_interventional_examination():
    model = ToyCausalModel.reference()
    assert interventional(model, 1, {"e": 1}, {}) == pytest.approx(1.0, abs=1e-12)
    assert interventional(model, 2, {"e": 1}, {}) == pytest.approx(0.5, abs=1e-12)


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
        for k in range(1, model.n_positions + 1):
            seen = conditional(table, {"e": 1}, {"k": k, "c": 1})
            done = interventional(model, k, {"e": 1}, {"c": 1})
            assert abs(seen - done) <= 1e-12


def test_decomposition_identity_over_random_models():
    """Conditioning on position and click decomposes over the document type."""
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        model = random_causal_model(rng)
        table = enumerate_joint(model)
        k = int(rng.integers(1, model.n_positions + 1))
        direct = conditional(table, {"e": 1}, {"k": k, "c": 1})
        total = 0.0
        for x in range(model.n_types):
            total += (conditional(table, {"e": 1}, {"x": x, "k": k, "c": 1})
                      * conditional(table, {"x": x}, {"k": k, "c": 1}))
        assert abs(direct - total) <= 1e-12


def test_adjustment_identity_over_random_models():
    """The cut-graph answer equals the observational sum over the type prior."""
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        model = random_causal_model(rng)
        k = int(rng.integers(1, model.n_positions + 1))
        for given in ({}, {"c": 1}):
            direct = interventional(model, k, {"e": 1}, given)
            summed = float(backdoor_adjustment_terms(model, k, given).sum())
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

"""Shared oracle machinery for the test suite.

Independent reference routes live here so the tests never check an
implementation against itself: central finite differences for gradients,
loop-and-math brute-force ranking metrics, random strictly-interior causal
models and the backdoor adjustment sum for the enumeration identities, the
closed-form click probability
behind the vectorized click sampler, the full-information loss that the
IPW click loss estimates, and the one-rank-at-a-time backdoor readout
behind ``backdoor_estimate``.
"""

import math
from typing import Mapping

import numpy as np

from ultrlab.autodiff import Tensor, weighted_listwise_ce
from ultrlab.causal import ToyCausalModel, conditional, enumerate_joint, intervene
from ultrlab.clicks import PositionBiasCurve, SimulationConfig, perceived_relevance_probability
from ultrlab.propensity import LPPModel, PropensityEstimate
from ultrlab.ranker import RankerMLP, ipw_ranking_loss

FD_H = 1e-4
FD_TOL = 1e-4


def numeric_gradients(f, arrays, h=FD_H):
    """Central finite differences of ``f(arrays) -> float``, per coordinate.

    Perturbs the arrays in place and restores them, so ``f`` must read the
    same list object each call.
    """
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = f(arrays)
            flat[i] = keep - h
            fm = f(arrays)
            flat[i] = keep
            gf[i] = (fp - fm) / (2.0 * h)
        out.append(g)
    return out


def check_gradients(build_loss, arrays, tol=FD_TOL, h=FD_H):
    """Backprop through ``build_loss(list of Tensors)`` vs central differences.

    The error metric is |analytic - numeric| / max(1, |analytic|), so tiny
    coordinates are judged absolutely and large ones relatively. Returns the
    leaf Tensors, holding the gradients of the backward pass that was checked.
    """
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(tensors)
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]

    def f(arrs):
        return float(build_loss([Tensor(a) for a in arrs]).data)

    numeric = numeric_gradients(f, [a.copy() for a in arrays], h=h)
    for got, want in zip(analytic, numeric):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(got))
        assert err.max() <= tol, f"gradient mismatch: max err {err.max():.3e}"
    return tensors


def check_parameter_gradients(params, loss_fn, tol=FD_TOL, h=FD_H):
    """Same check for named Parameters of a model, perturbing them in place.

    ``loss_fn()`` must rebuild the forward pass from the parameters' current
    values every call (deterministically: eval mode or pinned dropout masks).
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    for p, ana in zip(params, analytic):
        flat, af = p.data.reshape(-1), ana.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            fp = float(loss_fn().data)
            flat[i] = keep - h
            fm = float(loss_fn().data)
            flat[i] = keep
            fd = (fp - fm) / (2.0 * h)
            err = abs(af[i] - fd) / max(1.0, abs(af[i]))
            assert err <= tol, (
                f"{p.name}[{i}]: analytic {af[i]:.6e} vs numeric {fd:.6e}"
            )


def brute_dcg(labels, k):
    """Gain/discount sum written as a plain Python loop over math functions."""
    labels = list(labels)[: int(k)]
    return sum((2.0 ** y - 1.0) / math.log2(i + 2) for i, y in enumerate(labels))


def brute_ndcg(labels, k):
    ideal = brute_dcg(sorted(labels, reverse=True), k)
    if ideal == 0.0:
        return 1.0
    return brute_dcg(labels, k) / ideal


def brute_err(labels, k, y_max=4):
    """Cascade metric by explicit stop-position enumeration.

    P(stop at i) is rebuilt from scratch for every i instead of keeping a
    running survival product, so the arithmetic takes a different path than
    any incremental implementation.
    """
    labels = list(labels)[: int(k)]
    R = [(2.0 ** y - 1.0) / 2.0 ** y_max for y in labels]
    total = 0.0
    for i in range(len(R)):
        stop_here = R[i]
        for j in range(i):
            stop_here *= 1.0 - R[j]
        total += stop_here / (i + 1)
    return total


GRADIENT_PRIMITIVES = (
    "add_broadcast", "mul_broadcast", "neg", "div_scalar", "matmul", "elu",
    "dropout", "log_softmax", "sum_all", "sum_axis", "sum_keepdims", "reshape",
    "take_rows", "weighted_listwise_ce",
)


def gradient_case(name, rng):
    """Random input arrays and a scalar-loss builder for one primitive.

    Every builder mixes the op's output with a fixed random weight tensor so
    the loss depends on each output coordinate differently; a sign or
    transpose bug cannot hide behind a symmetric reduction.
    """
    W34 = rng.normal(size=(3, 4))
    if name == "add_broadcast":
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
        return arrays, lambda ts: ((ts[0] + ts[1]) * Tensor(W34)).sum()
    if name == "mul_broadcast":
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(3, 1))]
        return arrays, lambda ts: ((ts[0] * ts[1]) * Tensor(W34)).sum()
    if name == "neg":
        return [rng.normal(size=(3, 4))], lambda ts: ((-ts[0]) * Tensor(W34)).sum()
    if name == "div_scalar":
        return [rng.normal(size=(3, 4))], lambda ts: ((ts[0] / 3.7) * Tensor(W34)).sum()
    if name == "matmul":
        arrays = [rng.normal(size=(3, 5)), rng.normal(size=(5, 4))]
        return arrays, lambda ts: (ts[0].matmul(ts[1]) * Tensor(W34)).sum()
    if name == "elu":
        return [rng.normal(size=(3, 4))], lambda ts: (ts[0].elu() * Tensor(W34)).sum()
    if name == "dropout":
        mask = (rng.random((3, 4)) >= 0.4) / 0.6
        return [rng.normal(size=(3, 4))], (
            lambda ts: (ts[0].dropout(0.4, mask=mask) * Tensor(W34)).sum())
    if name == "log_softmax":
        return [rng.normal(size=(3, 4))], (
            lambda ts: (ts[0].log_softmax() * Tensor(W34)).sum())
    if name == "sum_all":
        return [rng.normal(size=(3, 4))], lambda ts: ts[0].sum()
    if name == "sum_axis":
        w = rng.normal(size=4)
        return [rng.normal(size=(3, 4))], (
            lambda ts: (ts[0].sum(axis=0) * Tensor(w)).sum())
    if name == "sum_keepdims":
        w = rng.normal(size=(3, 1))
        return [rng.normal(size=(3, 4))], (
            lambda ts: (ts[0].sum(axis=1, keepdims=True) * Tensor(w)).sum())
    if name == "reshape":
        W26 = rng.normal(size=(2, 6))
        return [rng.normal(size=(3, 4))], (
            lambda ts: (ts[0].reshape(2, 6) * Tensor(W26)).sum())
    if name == "take_rows":
        idx = np.array([0, 2, 2, 4, 1])
        W53 = rng.normal(size=(5, 3))
        return [rng.normal(size=(5, 3))], (
            lambda ts: (ts[0].take_rows(idx) * Tensor(W53)).sum())
    if name == "weighted_listwise_ce":
        w = rng.uniform(0.1, 1.0, size=(3, 4))
        return [rng.normal(size=(3, 4))], (
            lambda ts: weighted_listwise_ce(ts[0], w))
    raise ValueError(f"unknown primitive case {name!r}")


def ranker_gradient_case(rng):
    """A small full ranker with active dropout, pinned masks, and a click loss."""
    model = RankerMLP(5, rng, hidden=(8, 6), dropout=0.3)
    X = rng.uniform(size=(6, 5))
    clicks = rng.integers(0, 2, size=(2, 3)).astype(np.float64)
    clicks[0, 0] = 1.0
    estimate = PropensityEstimate(weights=np.array([1.0, 0.6, 0.3]))
    masks = [(rng.random((6, 8)) >= 0.3) / 0.7, (rng.random((6, 6)) >= 0.3) / 0.7]

    def loss_fn():
        out = model.forward(X, train=True, dropout_masks=masks)
        return ipw_ranking_loss(out.reshape(2, 3), clicks, estimate)

    return model.parameters(), loss_fn


def lpp_gradient_case(rng):
    """A small full two-pathway model; loss mixes both forward views."""
    model = LPPModel(4, 3, rng, embed_dim=5, encoder_hidden=(7,), ffn_hidden=(6, 4))
    model.position_table.data[:] = 0.3 * rng.normal(size=model.position_table.data.shape)
    X = rng.uniform(size=(6, 4))
    positions = np.array([0, 1, 2, 0, 1, 2])
    w_joint = rng.uniform(0.2, 1.0, size=(2, 3))
    w_conf = rng.uniform(0.2, 1.0, size=(2, 3))

    def loss_fn():
        joint = model.forward_joint(X, positions).reshape(2, 3)
        conf = model.forward_confounder(X).reshape(2, 3)
        return weighted_listwise_ce(joint, w_joint) + \
            weighted_listwise_ce(conf, w_conf) * 0.5

    return model.parameters(), loss_fn


def random_causal_model(rng, n_types=None, n_positions=None):
    """A random model with strictly interior CPTs, so every event has mass.

    Clicks still require examination (first row of the click CPT is zero);
    the examined-but-irrelevant click probability is randomized.
    """
    nx = int(rng.integers(2, 5)) if n_types is None else n_types
    nk = int(rng.integers(2, 5)) if n_positions is None else n_positions
    px = rng.uniform(0.1, 1.0, nx)
    px /= px.sum()
    pk = rng.uniform(0.1, 1.0, (nx, nk))
    pk /= pk.sum(axis=1, keepdims=True)
    return ToyCausalModel(
        px=px,
        pr_given_x=rng.uniform(0.1, 0.9, nx),
        pk_given_x=pk,
        pe_given_k=rng.uniform(0.1, 0.95, nk),
        pc_given_er=np.array([
            [0.0, 0.0],
            [rng.uniform(0.05, 0.3), rng.uniform(0.7, 1.0)],
        ]),
    )


def examination_probability(curve: PositionBiasCurve, position: int, eta: float) -> float:
    """P(e=1 | k) for a 1-based displayed position."""
    if not 1 <= position <= len(curve):
        raise ValueError(f"position {position} outside curve of length {len(curve)}")
    return float(curve.values[position - 1] ** eta)


def expected_click_probability(
    label: int, position: int, curve: PositionBiasCurve, config: SimulationConfig
) -> float:
    """Closed-form P(c=1) for a grade at a rank; the simulator's ground truth."""
    rho = examination_probability(curve, position, config.eta)
    rel = perceived_relevance_probability(np.array([label]), config)[0]
    return rho * float(rel)


def full_information_loss(scores: Tensor, labels: np.ndarray,
                          config: SimulationConfig) -> Tensor:
    """Listwise loss weighted by true perceived-relevance probabilities.

    This is what the inverse-propensity-weighted click loss estimates: with
    oracle propensities and a curve whose top value is 1, the Monte Carlo
    average of the click loss over sessions converges to this quantity.
    """
    rel = perceived_relevance_probability(np.asarray(labels), config)
    if rel.shape != scores.data.shape:
        raise ValueError("labels must match scores shape")
    return weighted_listwise_ce(scores, rel)


def backdoor_adjust(model: LPPModel, features: np.ndarray, k: int) -> float:
    """Examination rate at a forced rank, averaged over the documents.

    Every document in the batch is scored as if displayed at rank ``k``.
    Holding the document distribution fixed while forcing the rank is what
    removes the policy's position-by-relevance correlation from the estimate.

    The scalar head is read as a log examination rate and the average is
    taken on that log scale, so the returned rate is exp(mean head value).
    Both training losses are softmax cross-entropies and therefore blind to
    a per-list shift of the head, which leaves its absolute level floating
    wherever initialization put it; rank-to-rank ratios of log-averaged
    rates cancel that arbitrary level exactly, where a squashed arithmetic
    mean would flatten them toward 1 whenever the level sits near zero.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("features must be a non-empty (docs, feature_dim) matrix")
    if not 1 <= k <= model.n_positions:
        raise ValueError(f"k must lie in [1, {model.n_positions}]")
    positions = np.full(X.shape[0], k - 1, dtype=np.int64)
    out = model.forward_joint(X, positions)
    return float(np.exp(out.data.mean()))


def backdoor_adjustment_terms(
    model: ToyCausalModel, do_k: int, given: Mapping[str, int]
) -> np.ndarray:
    """Per-type products P(x | given, cut graph) * P(E=1 | x, K=do_k, seen graph).

    Summing the terms reconstructs the interventional examination probability
    from observational conditionals plus the adjustment prior. Each factor is
    computed from its own joint table, so the sum really is a second route.
    """
    observational = enumerate_joint(model)
    mutilated = enumerate_joint(intervene(model, do_k))
    terms = np.empty(model.n_types)
    for x in range(model.n_types):
        prior = conditional(mutilated, {"x": x}, given)
        exam = conditional(observational, {"e": 1}, {**given, "x": x, "k": do_k})
        terms[x] = prior * exam
    return terms

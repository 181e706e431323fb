"""Shared oracle machinery for the test suite.

Independent reference routes live here so the tests never check an
implementation against itself: central finite differences for gradients,
loop-and-math brute-force ranking metrics, random strictly-interior causal
models and the backdoor adjustment sum for the enumeration identities, the
closed-form click probability
behind the vectorized click sampler, the full-information loss that the
IPW click loss estimates, and the one-rank-at-a-time backdoor readout
behind ``backdoor_estimate``, the four-pass ELU behind ``_elu``, the
op-by-op listwise cross-entropy behind ``weighted_listwise_ce``, the
primitive layer chain behind the one-node ``MLP`` call and the block-wise
``MLP.infer``, the ``np.add.at`` scatter behind ``take_rows``'s backward, the
per-query gathers behind ``LoggingPolicy.displayed``, and the line-by-line
SVMlight parser and f-string serializer behind the block-wise
``parse_svmlight`` and ``serialize_svmlight``. It also reads OpenBLAS's
thread count, for the checks that BLAS threads change no byte.
"""

import ctypes
import math

import numpy as np

from ultrlab.autodiff import MLP, Tensor, weighted_listwise_ce
from ultrlab.causal import ToyCausalModel, enumerate_joint, interventional_joint
from ultrlab.clicks import PositionBiasCurve, SimulationConfig, perceived_relevance_probability
from ultrlab.data import Y_MAX, Dataset, ParseError
from ultrlab.propensity import LPPModel, PropensityEstimate
from ultrlab.ranker import RankerMLP, ipw_ranking_loss
from ultrlab.training import rank_view_scores

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
    tensors = [Tensor(a.copy()) for a in arrays]
    loss = build_loss(tensors)
    loss.backward(tensors)
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
    values every call (deterministically: eval mode, or a dropout rng seeded
    afresh on every call so that each evaluation draws the same masks).
    """
    for p in params:
        p.grad = None
    loss_fn().backward(params)
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


def elu_four_pass(x: np.ndarray) -> np.ndarray:
    """ELU in place as max(x, 0) + expm1(min(x, 0)): the four-pass formula
    ``autodiff._elu`` replaced, kept as the reference for its bits."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(x, 0.0, out=x)
    x += neg
    return x


def listwise_ce_op_by_op(logits: np.ndarray, weights: np.ndarray):
    """Loss value and (rows, items) logits gradient of ``weighted_listwise_ce``
    in numpy, in the order of the chain the fused loss node replaced:
    log-softmax, ``w * ls`` summed, negated and scaled by 1/rows; backward
    broadcasts the scaled -1 over ``ls``, multiplies by ``w`` and runs
    log-softmax's backward.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    ls = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n = logits.shape[0]
    loss = ((weights * ls).sum() * -1.0) * (1 / n)
    g = np.broadcast_to(-(1 / n), ls.shape) * weights
    return loss, g - np.exp(ls) * g.sum(axis=-1, keepdims=True)


def mlp_op_by_op(net: MLP, x: Tensor, rng=None) -> Tensor:
    """``net(x, rng)`` as the chain of tape primitives the one-node call replaced:
    per layer ``x.matmul(W) + b``, then on hidden layers ``.elu()`` and, given
    an rng, ``.dropout(p, rng)``. Four tape nodes a layer, each with its own
    backward."""
    h = x
    for i, layer in enumerate(net.layers):
        h = h.matmul(layer.W) + layer.b
        if i < len(net.layers) - 1:
            h = h.elu()
            if rng is not None:
                h = h.dropout(net.dropout, rng=rng)
    return h


def take_rows_scatter_add_at(table_shape, indices, grad: np.ndarray) -> np.ndarray:
    """``take_rows``'s table gradient as ``np.add.at`` into zeros: the scatter
    the one-call bincount replaced, kept as the reference for its bits."""
    out = np.zeros(table_shape)
    np.add.at(out, np.asarray(indices, dtype=np.int64), grad)
    return out


def displayed_take_along_axis(policy, query_rows, top_n: int):
    """``policy.displayed(query_rows, top_n)`` as per-query ``take_along_axis``
    gathers over copies of the queries' rows: the version the flat-row gather
    replaced, kept as the reference for its bits."""
    n = min(top_n, policy.view.n_docs)
    order = rank_view_scores(policy.scores)[query_rows, :n]
    feats = np.take_along_axis(policy.view.features[query_rows], order[:, :, None], axis=1)
    labels = np.take_along_axis(policy.view.labels[query_rows], order, axis=1)
    scores = np.take_along_axis(policy.scores[query_rows], order, axis=1)
    return feats, labels, scores


def linear_readout(t: Tensor, W: np.ndarray) -> Tensor:
    """Scalar sum of ``t`` weighted by ``W`` (same shape), built from matmul
    and reshape so the readout uses only the tape's own ops."""
    return t.reshape(1, -1).matmul(Tensor(W.reshape(-1, 1))).reshape(())


GRADIENT_PRIMITIVES = (
    "add_broadcast", "matmul", "elu", "dropout", "log_softmax", "reshape",
    "take_rows", "weighted_listwise_ce",
)


def gradient_case(name, rng):
    """Random input arrays and a scalar-loss builder for one primitive.

    Every builder reads the op's output out through a fixed random weight
    array so the loss depends on each output coordinate differently; a sign
    or transpose bug cannot hide behind a symmetric reduction.
    """
    W34 = rng.normal(size=(3, 4))
    if name == "add_broadcast":
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
        return arrays, lambda ts: linear_readout(ts[0] + ts[1], W34)
    if name == "matmul":
        arrays = [rng.normal(size=(3, 5)), rng.normal(size=(5, 4))]
        return arrays, lambda ts: linear_readout(ts[0].matmul(ts[1]), W34)
    if name == "elu":
        return [rng.normal(size=(3, 4))], lambda ts: linear_readout(ts[0].elu(), W34)
    if name == "dropout":
        seed = int(rng.integers(2**32))
        return [rng.normal(size=(3, 4))], (
            lambda ts: linear_readout(ts[0].dropout(0.4, rng=np.random.default_rng(seed)),
                                      W34))
    if name == "log_softmax":
        return [rng.normal(size=(3, 4))], (
            lambda ts: linear_readout(ts[0].log_softmax(), W34))
    if name == "reshape":
        W26 = rng.normal(size=(2, 6))
        return [rng.normal(size=(3, 4))], (
            lambda ts: linear_readout(ts[0].reshape(2, 6), W26))
    if name == "take_rows":
        idx = np.array([0, 2, 2, 4, 1])
        W53 = rng.normal(size=(5, 3))
        return [rng.normal(size=(5, 3))], (
            lambda ts: linear_readout(ts[0].take_rows(idx), W53))
    if name == "weighted_listwise_ce":
        w = rng.uniform(0.1, 1.0, size=(3, 4))
        return [rng.normal(size=(3, 4))], (
            lambda ts: weighted_listwise_ce(ts[0], w))
    raise ValueError(f"unknown primitive case {name!r}")


def ranker_gradient_case(rng):
    """A small full ranker with active dropout, pinned draws, and a click loss."""
    model = RankerMLP(5, rng, hidden=(8, 6), dropout=0.3)
    X = rng.uniform(size=(6, 5))
    clicks = rng.integers(0, 2, size=(2, 3)).astype(np.float64)
    clicks[0, 0] = 1.0
    estimate = PropensityEstimate(weights=np.array([1.0, 0.6, 0.3]))
    seed = int(rng.integers(2**32))

    def loss_fn():
        out = model.forward(X, rng=np.random.default_rng(seed))
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
        return weighted_listwise_ce(joint, w_joint) + weighted_listwise_ce(conf, 0.5 * w_conf)

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


def backdoor_adjustment_terms(model: ToyCausalModel, k: int, c: slice) -> np.ndarray:
    """Per-type products P(x | c, cut graph) * P(E=1 | x, K=k+1, c, seen graph).

    ``k`` is a 0-based rank index and ``c`` a slice of the click axis:
    ``slice(None)`` conditions on nothing, ``slice(1, 2)`` on a click.
    Summing the terms reconstructs P(E=1 | do(K=k+1), c) from observational
    ratios plus the adjustment prior. Each factor is computed from its own
    joint array, so the sum really is a second route.
    """
    seen = enumerate_joint(model)[:, :, k, :, c]  # axes (x, r, e, c)
    cut = interventional_joint(model)[:, :, k, :, c]
    prior = cut.sum(axis=(1, 2, 3)) / cut.sum()
    exam = seen[:, :, 1].sum(axis=(1, 2)) / seen.sum(axis=(1, 2, 3))
    return prior * exam


def parse_svmlight_line_by_line(text: str) -> Dataset:
    """``parse_svmlight`` one token at a time: every check on a line runs before
    the next line is read, so the first fault in file order is the one raised."""
    qids, labels, comments = [], [], []
    cells_row, cells_fid, cells_val = [], [], []
    max_fid = max_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        comment = comment.strip()
        line = line.strip()
        if not line:
            if comment:
                raise ParseError(line_no, "comment-only line has no label")
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError(line_no, "expected '<label> qid:<id> ...'")
        try:
            label = int(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
        if not 0 <= label <= Y_MAX:
            raise ParseError(line_no, f"label {label} outside [0, {Y_MAX}]")
        if not tokens[1].startswith("qid:"):
            raise ParseError(line_no, f"expected qid:<id>, got {tokens[1]!r}")
        qid = tokens[1][len("qid:"):]
        if not qid:
            raise ParseError(line_no, "empty qid")
        feats = {}
        for tok in tokens[2:]:
            fid_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(line_no, f"bad feature token {tok!r}")
            try:
                fid = int(fid_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(line_no, f"bad feature token {tok!r}") from None
            if fid < 1:
                raise ParseError(line_no, f"feature ids are 1-based, got {fid}")
            if fid in feats:
                raise ParseError(line_no, f"feature id {fid} given twice")
            feats[fid] = val
            if fid > max_fid:
                max_fid, max_line = fid, line_no
        cells_row.extend([len(qids)] * len(feats))
        cells_fid.extend(feats)
        cells_val.extend(feats.values())
        qids.append(qid)
        labels.append(label)
        comments.append(comment)

    try:
        features = np.zeros((len(qids), max_fid), dtype=np.float64)
    except (MemoryError, ValueError):
        raise ParseError(max_line, f"feature id {max_fid} needs a {len(qids)} x {max_fid} "
                         "feature matrix, too large to allocate") from None
    features[np.array(cells_row, dtype=np.int64),
             np.array(cells_fid, dtype=np.int64) - 1] = cells_val
    first: dict = {}
    owner = np.array([first.setdefault(qid, len(first)) for qid in qids], dtype=np.int64)
    order = np.argsort(owner, kind="stable")
    offsets = np.zeros(len(first) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=len(first)), out=offsets[1:])
    slot = np.arange(len(qids)) - offsets[owner[order]]
    doc_ids = [comments[i] or f"q{qids[i]}_d{j}" for i, j in zip(order.tolist(), slot.tolist())]
    return Dataset(features=features[order], labels=np.array(labels, dtype=np.int64)[order],
                   doc_ids=doc_ids, query_ids=list(first), offsets=offsets)


def serialize_svmlight_fstring(dataset: Dataset) -> str:
    """``serialize_svmlight`` one f-string and one ``repr`` per feature token."""
    qids = np.repeat(dataset.query_ids, np.diff(dataset.offsets))
    lines = []
    for qid, label, doc_id, vec in zip(qids.tolist(), dataset.labels.tolist(),
                                       dataset.doc_ids.tolist(), dataset.features.tolist()):
        feats = " ".join(f"{fid}:{val!r}" for fid, val in enumerate(vec, start=1))
        lines.append(f"{label} qid:{qid} {feats} # {doc_id}")
    return "\n".join(lines) + ("\n" if lines else "")


def openblas_threads():
    """OpenBLAS's own thread count, read from the library this process loaded
    (as ``perfbench/run.py`` reads it); None when numpy uses another BLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None

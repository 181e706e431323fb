"""Graded ranking quality metrics: nDCG@k and ERR@k, plus a propensity estimate's
error against the true curve.

The ranking metrics take a (queries, ranks) label matrix, each row already
arranged in display order (the best-first ranking to be scored), use
exponential gain ``2**y - 1``, and truncate at the cutoff or the list end,
whichever comes first.
"""

from typing import Dict, Sequence

import numpy as np

from .data import Y_MAX
from .propensity import PropensityEstimate

DEFAULT_CUTOFFS = (1, 3, 5, 10)


def ranking_metrics(ranked, cutoffs: Sequence[int] = DEFAULT_CUTOFFS) -> Dict[str, np.ndarray]:
    """Per-query nDCG and ERR at every cutoff, keyed 'ndcg@k' then 'err@k'.

    nDCG divides the row's sum of (2^y - 1) / log2(rank + 1) up to k by the
    same sum over its label-sorted ideal; a row with no gain has no ideal to
    fall short of, so it scores 1.0. ERR is the cascade stop model: rank i
    satisfies with probability R_i = (2^y_i - 1) / 2^Y_MAX, and the metric is
    the running sum over ranks of (1/i) R_i prod_{j<i} (1 - R_j).
    """
    y = np.asarray(ranked, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("ranked labels must be a (queries, ranks) matrix")
    if any(k < 1 for k in cutoffs):
        raise ValueError("cutoff must be >= 1")
    if not np.all((y >= 0) & (y <= Y_MAX)):
        raise ValueError(f"labels must lie in [0, {Y_MAX}]")
    n = y.shape[1]
    ranks = np.arange(1, n + 1, dtype=np.float64)
    gain = np.power(2.0, y) - 1.0
    discount = np.log2(ranks + 1.0)
    dcg = gain / discount
    ideal = -np.sort(-gain, axis=1) / discount
    R = gain / 2.0 ** Y_MAX
    # The product over stay is the chance of reaching each rank unsatisfied.
    # cumsum adds in rank order, so err@k carries the bits of a running sum,
    # where a row .sum() would add pairwise; column 0 is the empty prefix.
    stay = np.ones_like(R)
    stay[:, 1:] = 1.0 - R[:, :-1]
    err = np.zeros((y.shape[0], n + 1))
    np.cumsum(np.cumprod(stay, axis=1) * R / ranks, axis=1, out=err[:, 1:])

    out = {}
    for k in cutoffs:
        top = ideal[:, :k].sum(axis=1)
        out[f"ndcg@{k}"] = np.divide(dcg[:, :k].sum(axis=1), top,
                                     out=np.ones_like(top), where=top != 0.0)
    for k in cutoffs:
        out[f"err@{k}"] = err[:, min(k, n)].copy()
    return out


def propensity_error(estimate: PropensityEstimate, truth_curve, eta: float) -> float:
    """Mean absolute relative error against the true curve, scale removed.

    Both the estimate and rho_k**eta are rescaled to their deepest shared
    rank before comparing, so an estimate proportional to the curve scores 0.
    """
    w = estimate.weights
    true = truth_curve.examination(eta)[: w.size]
    if true.size != w.size:
        raise ValueError("truth curve shorter than the estimate")
    w_n = w / w[-1]
    t_n = true / true[-1]
    return float(np.mean(np.abs(w_n - t_n) / t_n))

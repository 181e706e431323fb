"""Propensity models and their training steps.

Two estimators of per-position examination probability live here. The
position-only model keeps one logit per rank and is trained against clicks
with inverse-relevance weights (the dual of the ranker's inverse-propensity
loss). The logging-policy-aware model factors examination into a document
encoder (how strongly features drove the displayed position) plus a position
embedding, shares one scalar head between both views, and is trained in two
steps per iteration: fit the document pathway to policy targets, then hold it
fixed and fit only the position embeddings to base propensity targets.
Averaging the squashed head over documents at a forced position reads off an
examination probability with the document pathway held at its distribution,
which strips the policy-induced correlation out of the estimate.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .autodiff import MLP, AdaGrad, Parameter, Tensor, weighted_listwise_ce

DEFAULT_TAU = 0.05
# LPPModel's sizes: position embedding width, encoder and head hidden layers.
DEFAULT_EMBED_DIM = 16
DEFAULT_ENCODER_HIDDEN = (32,)
DEFAULT_FFN_HIDDEN = (16, 64)


class FreezeContractError(RuntimeError):
    """The document pathway changed while only position embeddings may move."""


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum so exp cannot overflow."""
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def clipped_inverse_weights(weights: np.ndarray, tau: float = DEFAULT_TAU) -> np.ndarray:
    """weight_1 / max(weight_k, tau) per row: inverse weights with a variance floor.

    A 1-D input is one row. Every row needs a positive first entry and no
    negative entry.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if np.any(w[..., 0] <= 0.0):
        raise ValueError("degenerate weights: a row's first entry must be positive")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return w[..., :1] / np.maximum(w, tau)


@dataclass
class PropensityEstimate:
    """Relative examination probabilities per rank, pinned to 1 at rank 1."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError(f"weights must be finite, got {self.weights.tolist()}")
        if self.weights[0] != 1.0:
            raise ValueError("weights must be normalized to 1 at position 1")
        if np.any(self.weights <= 0.0) or np.any(self.weights > 1.0):
            raise ValueError("weights must lie in (0, 1]")

    def __len__(self) -> int:
        return self.weights.size

    @classmethod
    def from_raw(cls, raw) -> "PropensityEstimate":
        """Normalize positives by the first entry; anything above 1 saturates."""
        raw = np.asarray(raw, dtype=np.float64)
        if not np.all(np.isfinite(raw)):
            raise ValueError(f"raw weights must be finite, got {raw.tolist()}")
        if raw.size == 0 or np.any(raw <= 0.0):
            raise ValueError("raw weights must be positive")
        return cls(weights=np.minimum(raw / raw[0], 1.0))

    @classmethod
    def uniform(cls, n_positions: int) -> "PropensityEstimate":
        """All ranks weighted equally: inverse weighting degenerates to none."""
        return cls(weights=np.ones(n_positions))

    def normalized(self) -> np.ndarray:
        """The weights over rank 10's, or over the last rank's in a shorter list; rank
        1 of the result is the headline 'how steep is the bias' number of a run."""
        return self.weights / self.weights[min(10, len(self)) - 1]

    def as_csv(self) -> str:
        """Rows `position,weight,normalized_weight_ref10`, the last from ``normalized``."""
        lines = ["position,weight,normalized_weight_ref10"]
        for i, (w, n) in enumerate(zip(self.weights, self.normalized()), start=1):
            lines.append(f"{i},{float(w)!r},{float(n)!r}")
        return "\n".join(lines) + "\n"


class PositionPropensityModel:
    """One trainable logit per rank; softmax turns them into relative weights."""

    def __init__(self, n_positions: int):
        if n_positions < 1:
            raise ValueError("n_positions must be >= 1")
        self.logits = Parameter(np.zeros((1, n_positions)), "position_logits")

    def batch_scores(self, batch_rows: int) -> Tensor:
        """The logits repeated per session row, so listwise losses apply rowwise."""
        return self.logits.take_rows(np.zeros(batch_rows, dtype=np.int64))

    def parameters(self) -> List[Parameter]:
        return [self.logits]


def dla_propensity(model: PositionPropensityModel) -> PropensityEstimate:
    """Softmax over the position logits, renormalized to rank 1."""
    return PropensityEstimate.from_raw(_softmax(model.logits.data.reshape(-1)))


def irw_propensity_loss(position_scores: Tensor, clicks: np.ndarray,
                        relevance_weights: np.ndarray, tau: float = DEFAULT_TAU) -> Tensor:
    """Inverse-relevance-weighted listwise loss on the position logits.

    The exact mirror of the ranker's click loss with the roles swapped: each
    clicked rank contributes -log softmax(position logits) weighted by
    rel_1 / max(rel_k, tau), where the relevance weights are the ranker's
    raw softmax values over the displayed list.
    """
    c = np.asarray(clicks, dtype=np.float64)
    rel = np.asarray(relevance_weights, dtype=np.float64)
    if c.shape != position_scores.data.shape or rel.shape != c.shape:
        raise ValueError("scores, clicks and relevance weights must share a shape")
    return weighted_listwise_ce(position_scores, c * clipped_inverse_weights(rel, tau))


def relevance_weights_from_scores(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of ranker scores, as raw probabilities.

    The values are kept on the probability scale (each row sums to 1) rather
    than rescaled to 1 at rank 1, so the variance floor tau inside the
    inverse-relevance loss bites at an absolute probability. With a list of
    n documents the floor sits at half of uniform (tau = 0.05, uniform 0.1
    for n = 10), which caps how much relevance decay the dual loss can
    divide out of the click signal.
    """
    return _softmax(np.asarray(scores, dtype=np.float64))


class LPPModel:
    """Document encoder + position embedding table + shared scalar head.

    Parameters split into two partitions: ``g_pt`` (encoder and head, the
    document pathway) and ``g_pos`` (the embedding table). The joint step of
    the two-step training updates only ``g_pos`` and checks that ``g_pt``
    kept its bits.
    Position embeddings start at zero, so at initialization the joint forward
    coincides exactly with the document-only forward.
    """

    def __init__(self, feature_dim: int, n_positions: int, rng: np.random.Generator,
                 embed_dim: int = DEFAULT_EMBED_DIM,
                 encoder_hidden: Sequence[int] = DEFAULT_ENCODER_HIDDEN,
                 ffn_hidden: Sequence[int] = DEFAULT_FFN_HIDDEN):
        if feature_dim < 1 or n_positions < 1:
            raise ValueError("feature_dim and n_positions must be >= 1")
        self.n_positions = n_positions
        self.encoder_d = MLP(feature_dim, encoder_hidden, embed_dim, rng, "lpp.encoder_d")
        self.position_table = Parameter(np.zeros((n_positions, embed_dim)),
                                        "lpp.encoder_p")
        self.ffn = MLP(embed_dim, ffn_hidden, 1, rng, "lpp.ffn")

    @property
    def g_pt(self) -> List[Parameter]:
        return [*self.encoder_d.parameters(), *self.ffn.parameters()]

    @property
    def g_pos(self) -> List[Parameter]:
        return [self.position_table]

    def parameters(self) -> List[Parameter]:
        return [*self.g_pt, *self.g_pos]

    def forward_confounder(self, features: np.ndarray) -> Tensor:
        """Document-only score column: head(encoder(x))."""
        X = np.asarray(features, dtype=np.float64)
        return self.ffn(self.encoder_d(Tensor(X)))

    def forward_joint(self, features: np.ndarray, positions: np.ndarray) -> Tensor:
        """Position-aware score column: head(encoder(x) + embedding[k])."""
        X = np.asarray(features, dtype=np.float64)
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape != (X.shape[0],):
            raise ValueError("positions must give one 0-based rank per feature row")
        if np.any(pos < 0) or np.any(pos >= self.n_positions):
            raise ValueError(f"positions must lie in [0, {self.n_positions})")
        m = self.encoder_d(Tensor(X))
        p = self.position_table.take_rows(pos)
        return self.ffn(m + p)


TARGET_VARIANTS = ("logging_scores", "mrr", "dcg")


def target_weights(variant: str, logging_scores: Optional[np.ndarray],
                   batch_rows: int, n_positions: int) -> np.ndarray:
    """Per-rank attention targets for confounding-effect learning.

    Every variant produces bounded per-rank target scores in (0, 1]: the
    session's own policy attention (softmax of the logging scores) by default,
    or the fixed profiles 1/k and 1/log2(k+1). The returned weights are the
    softmax of those scores, so the supervision the document pathway receives
    never gets steeper than one nat per list no matter how wide the raw policy
    scores happen to be. Raw scores straight from a trained ranker can span
    several nats, and a document pathway fit to that would swallow the whole
    position effect along with the confounding it is meant to absorb.
    """
    if variant == "logging_scores":
        if logging_scores is None:
            raise ValueError("logging_scores target variant needs the policy scores")
        z = np.asarray(logging_scores, dtype=np.float64)
        if z.shape != (batch_rows, n_positions):
            raise ValueError("logging_scores must be (batch_rows, n_positions)")
        scores = _softmax(z)
    else:
        ranks = np.arange(1, n_positions + 1, dtype=np.float64)
        if variant == "mrr":
            profile = 1.0 / ranks
        elif variant == "dcg":
            profile = 1.0 / np.log2(ranks + 1.0)
        else:
            raise ValueError(f"target variant must be one of {TARGET_VARIANTS}")
        scores = np.tile(profile, (batch_rows, 1))
    return _softmax(scores)


def confounding_effect_step(model: LPPModel, optimizer: AdaGrad,
                            features: np.ndarray, logging_scores: Optional[np.ndarray],
                            variant: str = "logging_scores") -> float:
    """Fit the document pathway to per-session policy targets; one optimizer step.

    ``features`` is (batch, positions, feature_dim) in displayed order. The
    embedding table takes no part in this forward; the update names
    ``model.g_pt``, the document pathway, as the parameters it moves.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError("features must be (batch, positions, feature_dim)")
    B, N, d = X.shape
    weights = target_weights(variant, logging_scores, B, N)
    logits = model.forward_confounder(X.reshape(B * N, d))
    return optimizer.minimize(weighted_listwise_ce(logits.reshape(B, N), weights), model.g_pt)


def position_targets_from_base(base: PositionPropensityModel) -> np.ndarray:
    """Log of the base model's softmax per rank: targets for the joint step."""
    z = base.logits.data.reshape(-1)
    z = z - z.max()
    return z - np.log(np.exp(z).sum())


def joint_propensity_step(model: LPPModel, optimizer: AdaGrad,
                          features: np.ndarray, position_targets: np.ndarray,
                          enforce_freeze: bool = True) -> float:
    """Fit position embeddings to base-propensity targets with the pathway locked.

    The update names ``model.g_pos`` as the only parameters it moves, and
    afterwards checks that the document pathway ``g_pt`` is bit-for-bit
    unchanged. Passing ``enforce_freeze=False`` updates every parameter and
    drops the check, which lets the document pathway chase position targets
    too; kept only to measure how much the contract matters.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError("features must be (batch, positions, feature_dim)")
    B, N, d = X.shape
    y = np.asarray(position_targets, dtype=np.float64)
    if y.shape != (N,):
        raise ValueError("position_targets must be (n_positions,)")
    weights = _softmax(np.tile(y, (B, 1)))

    snapshot = [p.data.tobytes() for p in model.g_pt] if enforce_freeze else None
    positions = np.tile(np.arange(N, dtype=np.int64), B)
    logits = model.forward_joint(X.reshape(B * N, d), positions)
    loss = optimizer.minimize(weighted_listwise_ce(logits.reshape(B, N), weights),
                              model.g_pos if enforce_freeze else model.parameters())
    if enforce_freeze:
        for p, before in zip(model.g_pt, snapshot):
            # Bytes, not values: NaN equals itself here and -0.0 differs from +0.0.
            if p.data.tobytes() != before:
                raise FreezeContractError(
                    f"document-pathway parameter {p.name!r} changed in the position-only step")
    return loss


def backdoor_estimate(model: LPPModel, features: np.ndarray) -> PropensityEstimate:
    """Backdoor-adjusted rates for every rank, normalized to rank 1.

    Every document is scored as if displayed at each forced rank in turn;
    holding the document distribution fixed while forcing the rank removes
    the policy's position-by-relevance correlation from the estimate. The
    head is read as a log examination rate and averaged on that log scale:
    both training losses are softmax cross-entropies, blind to a per-list
    shift of the head, and ratios of log-averaged rates cancel that floating
    level exactly, where a squashed arithmetic mean would flatten them
    toward 1. The documents are encoded once; each rank's embedding is then
    added to that block and the head scored one rank at a time, so the
    working set is one docs x width block, not positions times that. The
    test oracle ``backdoor_adjust(k)`` in ``tests/helpers.py`` scores one
    rank through the taped forward and must agree. The readout needs no
    gradient, so it runs on plain arrays through ``MLP.infer`` and builds no
    tape. A log-rate whose exp is not finite is refused with a ValueError.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("features must be a non-empty (docs, feature_dim) matrix")
    m = model.encoder_d.infer(X)
    log_rates = np.array([model.ffn.infer(m + p).mean() for p in model.position_table.data])
    with np.errstate(over="ignore"):
        raw = np.exp(log_rates)
    if not np.all(np.isfinite(raw)):
        raise ValueError(f"backdoor readout: exp of log-rates {log_rates.tolist()} is not finite")
    return PropensityEstimate.from_raw(raw)

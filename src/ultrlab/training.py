"""End-to-end click-log training: four algorithms under two logging paradigms.

``run_experiment`` is the one way to start a run. Per step it samples a
query batch, displays the logging policy's ranking, draws simulated clicks,
and hands the batch to the learner. The offline paradigm ('Off') keeps one
fixed (weak) policy for the whole run; the deterministic online paradigm
('OnD') re-freezes the current ranker as the policy every refresh interval.
Query sampling and click randomness are derived from the master seed by
labels that never mention the learner, so every algorithm consumes the same
stream; results are pure functions of (config, data).

Learners: ``IPWLearner`` trains the ranker under a fixed estimate, uniform
for 'naive' and the simulator's true curve for 'ipw_oracle'. ``DLALearner``
adds a position-only propensity model trained by the dual inverse-weighted
loss. ``UPELearner`` is DLA plus the two-step policy-aware model: per step the
base (DLA) propensity update, the confounding-effect step, the position-only
step that moves the position embeddings alone, the backdoor-adjusted
estimate, then the ranker update.
"""

import os
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from .autodiff import AdaGrad, Parameter, group_names
from .clicks import PositionBiasCurve, SimulationConfig, check_field_types, sample_click_matrix
from .data import Dataset, generate_synthetic
from .metrics import DEFAULT_CUTOFFS, propensity_error, ranking_metrics
from .propensity import (
    DEFAULT_EMBED_DIM,
    DEFAULT_ENCODER_HIDDEN,
    DEFAULT_FFN_HIDDEN,
    DEFAULT_TAU,
    TARGET_VARIANTS,
    LPPModel,
    PropensityEstimate,
    backdoor_estimate,
    confounding_effect_step,
    dla_propensity,
    irw_propensity_loss,
    joint_propensity_step,
    position_targets_from_base,
    softmax,
)
from .ranker import DEFAULT_DROPOUT, DEFAULT_HIDDEN, RankerMLP, ipw_ranking_loss
from .seeding import derive_seed, rng_for

ALGORITHMS = ("upe", "dla", "naive", "ipw_oracle")
PARADIGMS = ("OnD", "Off")

# A curve row's measurements, in column order; final_metrics holds the last row's.
METRIC_COLUMNS = (*(f"{metric}@{k}" for metric in ("ndcg", "err") for k in DEFAULT_CUTOFFS),
                  "norm_prop@1", "prop_error")
CURVE_COLUMNS = ("step", "algorithm", "seed", *METRIC_COLUMNS)


@dataclass
class SplitData:
    """Train and test splits of one synthetic (or parsed) collection."""

    train: Dataset
    test: Dataset


def make_split_data(n_train: int = 500, n_test: int = 100, docs_per_query: int = 10,
                    feature_dim: int = 16, seed: int = 7) -> SplitData:
    """Generate both splits from one seed.

    The splits draw independent features but share one hidden teacher, so
    test metrics measure generalization of the same labeling the ranker
    trains against.
    """
    teacher = derive_seed(seed, "data", "teacher")
    return SplitData(
        train=generate_synthetic(n_train, docs_per_query, feature_dim,
                                 derive_seed(seed, "data", "train"), teacher_seed=teacher),
        test=generate_synthetic(n_test, docs_per_query, feature_dim,
                                derive_seed(seed, "data", "test"), teacher_seed=teacher),
    )


class DatasetView:
    """A dataset whose lists all have one length, so that its own arrays,
    held here without a copy, hold no padding."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        lengths = np.unique(dataset.lengths)
        if lengths.size != 1:
            raise ValueError(
                "training views need equal-length candidate lists per query; "
                f"got lengths {lengths.tolist()}"
            )
        self.n_queries, self.n_docs = dataset.labels.shape
        self.features, self.labels = dataset.features, dataset.labels

    def flat_features(self) -> np.ndarray:
        return self.features.reshape(-1, self.features.shape[-1])


def rank_view_scores(scores: np.ndarray) -> np.ndarray:
    """Per-row descending order; stable, so the dataset's doc-id order settles ties."""
    return np.argsort(-scores, axis=1, kind="stable")


@dataclass
class LoggingPolicy:
    """A frozen scorer snapshot: per-query scores and the flat view row shown at each rank."""

    view: DatasetView
    scores: np.ndarray
    shown_rows: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (self.view.n_queries, self.view.n_docs):
            raise ValueError("scores must be (n_queries, n_docs) for the view")
        self.shown_rows = (rank_view_scores(self.scores)
                           + self.view.n_docs * np.arange(self.view.n_queries)[:, None])
        for array in (self.scores, self.shown_rows):
            array.setflags(write=False)

    @classmethod
    def from_ranker(cls, ranker: RankerMLP, view: DatasetView) -> "LoggingPolicy":
        scores = ranker.score(view.flat_features())
        return cls(view=view, scores=scores.reshape(view.n_queries, view.n_docs))

    @classmethod
    def from_linear(cls, weights: np.ndarray, view: DatasetView) -> "LoggingPolicy":
        w = np.asarray(weights, dtype=np.float64)
        return cls(view=view, scores=view.features @ w)

    def displayed(self, query_rows: np.ndarray, top_n: int):
        """Features, labels, and policy scores of the shown prefix, in order."""
        rows = self.shown_rows[query_rows, :min(top_n, self.view.n_docs)]
        return (self.view.flat_features()[rows], self.view.labels.reshape(-1)[rows],
                self.scores.reshape(-1)[rows])


def train_weak_policy(dataset: Dataset, fraction: float, seed: int) -> LoggingPolicy:
    """Fit a linear scorer by pairwise hinge on a fraction of labeled queries.

    Within each sampled query, every document pair with unequal grades yields
    one margin constraint on the score difference; full-batch subgradient
    descent on the hinge loss fits the weights. The result is frozen into a
    policy over the whole dataset.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    view = DatasetView(dataset)
    # The slack absorbs float rounding: (1 / 49) * 49 is 0.9999999999999999.
    n_sampled = int(fraction * view.n_queries + 1e-9)
    if n_sampled == 0:
        raise ValueError(
            f"fraction {fraction} of {view.n_queries} queries samples none"
        )
    rng = rng_for(seed, "weak-policy", "sample")
    rows = rng.choice(view.n_queries, size=n_sampled, replace=False)

    diffs = []
    for qi in rows:
        y, X = view.labels[qi], view.features[qi]
        i, j = np.nonzero(y[:, None] > y[None, :])
        diffs.append(X[i] - X[j])
    D = np.concatenate(diffs)
    if D.shape[0] == 0:
        raise ValueError("sampled queries contain no unequal label pairs")
    w = np.zeros(dataset.feature_dim)
    lr = 0.1
    for _ in range(100):
        margins = D @ w
        violating = margins < 1.0
        if not violating.any():
            break
        w += lr * D[violating].sum(axis=0) / D.shape[0]
    return LoggingPolicy.from_linear(w, view)


@dataclass
class ExperimentConfig:
    """Everything one run depends on besides the data itself."""

    paradigm: str = "OnD"
    algorithm: str = "upe"
    total_steps: int = 2000
    batch_queries: int = 32
    refresh_interval: int = 250
    learning_rate: float = 0.02
    seed: int = 0
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    target_variant: str = "logging_scores"
    upe_freeze: bool = True
    eval_every: int = 100
    weak_fraction: float = 0.01
    ranker_hidden: tuple = DEFAULT_HIDDEN
    dropout: float = DEFAULT_DROPOUT
    tau: float = DEFAULT_TAU
    lpp_embed_dim: int = DEFAULT_EMBED_DIM
    lpp_encoder_hidden: tuple = DEFAULT_ENCODER_HIDDEN
    lpp_ffn_hidden: tuple = DEFAULT_FFN_HIDDEN
    probe_docs: int = 320

    def __post_init__(self):
        check_field_types(self)
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.target_variant not in TARGET_VARIANTS:
            raise ValueError(f"target_variant must be one of {TARGET_VARIANTS}")
        for name in ("total_steps", "batch_queries", "refresh_interval",
                     "eval_every", "probe_docs", "lpp_embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.total_steps % self.refresh_interval != 0:
            raise ValueError("refresh_interval must divide total_steps")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0.0 < self.weak_fraction <= 1.0:
            raise ValueError("weak_fraction must lie in (0, 1]")
        self.ranker_hidden = tuple(self.ranker_hidden)
        self.lpp_encoder_hidden = tuple(self.lpp_encoder_hidden)
        self.lpp_ffn_hidden = tuple(self.lpp_ffn_hidden)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config a JSON object describes; a key no field owns is a ValueError."""
        raw = dict(raw)
        sim = raw.pop("simulation", {})
        if not isinstance(sim, dict):
            raise ValueError(f"simulation must be a JSON object, got {sim!r}")
        for prefix, section, owner in (("", raw, cls), ("simulation.", sim, SimulationConfig)):
            known = {f.name for f in fields(owner)}
            for key in section:
                if key not in known:
                    raise ValueError(f"unknown config key '{prefix}{key}'")
        return cls(simulation=SimulationConfig(**sim), **raw)


@dataclass
class StepBatch:
    """One training step's displayed lists: everything a learner may see."""

    features: np.ndarray        # (batch, positions, feature_dim), displayed order
    clicks: np.ndarray          # (batch, positions) binary
    logging_scores: np.ndarray  # (batch, positions) policy scores, displayed order


@dataclass
class RunResult:
    """Curves, final test metrics, and the final propensity estimate of a run."""

    curve: List[dict]
    final_metrics: Dict[str, float]
    final_estimate: PropensityEstimate
    duration_s: float
    ranker: RankerMLP

    def curves_csv(self) -> str:
        lines = [",".join(CURVE_COLUMNS)]
        for row in self.curve:
            cells = []
            for col in CURVE_COLUMNS:
                v = row[col]
                cells.append(str(v) if isinstance(v, (int, str)) else repr(float(v)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def evaluate_ranker(ranker: RankerMLP, view: DatasetView) -> Dict[str, float]:
    """Mean test metrics: rank every query by eval-mode score, true labels."""
    scores = ranker.score(view.flat_features()).reshape(view.n_queries, view.n_docs)
    if not np.isfinite(scores).all():
        raise ValueError("ranker scores are not finite")
    ranked = np.take_along_axis(view.labels, rank_view_scores(scores), axis=1)
    return {key: float(v.mean()) for key, v in ranking_metrics(ranked).items()}


class IPWLearner:
    """A ranker trained by the IPW click loss under a fixed propensity estimate.

    'naive' fixes the uniform estimate and 'ipw_oracle' the simulator's true
    curve; DLALearner and UPELearner learn theirs and override ``estimate``.
    """

    def __init__(self, cfg: ExperimentConfig, feature_dim: int, estimate: PropensityEstimate):
        self.cfg = cfg
        self.ranker = RankerMLP(feature_dim, rng_for(cfg.seed, cfg.algorithm, "init"),
                                hidden=cfg.ranker_hidden, dropout=cfg.dropout)
        self.opt = AdaGrad(cfg.learning_rate)
        self.drop_rng = rng_for(cfg.seed, cfg.algorithm, "ranker-dropout")
        self._estimate = estimate

    def _scores(self, batch: StepBatch):
        B, N, d = batch.features.shape
        out = self.ranker.forward(batch.features.reshape(B * N, d), rng=self.drop_rng)
        return out.reshape(B, N)

    def _ranker_update(self, scores, batch: StepBatch, estimate: PropensityEstimate) -> float:
        loss = ipw_ranking_loss(scores, batch.clicks, estimate, tau=self.cfg.tau)
        return self.opt.minimize(loss, self.ranker.parameters())

    def step(self, batch: StepBatch) -> float:
        return self._ranker_update(self._scores(batch), batch, self.estimate())

    def estimate(self) -> PropensityEstimate:
        return self._estimate


class DLALearner(IPWLearner):
    """Dual updates: IPW loss trains the ranker, IRW loss trains the logits.

    Both losses read the same forward; relevance weights for the dual loss
    are the detached raw softmax of the ranker's scores.
    """

    def __init__(self, cfg, feature_dim, n_positions):
        # Zero logits give the uniform estimate; estimate() reads the logits.
        super().__init__(cfg, feature_dim, PropensityEstimate.uniform(n_positions))
        self.position_logits = Parameter(np.zeros((1, n_positions)), "position_logits")

    def _position_update(self, scores, batch: StepBatch) -> float:
        """The IRW step on the position logits, repeated per session, against
        the ranker's softmax; a refusal of its weights names both."""
        pos_scores = self.position_logits.take_rows(np.zeros(len(batch.clicks), dtype=np.int64))
        try:
            loss = irw_propensity_loss(pos_scores, batch.clicks, softmax(scores.data),
                                       tau=self.cfg.tau)
        except ValueError as exc:
            raise ValueError(f"IRW update of {self.position_logits.name} against the softmax of "
                             f"{group_names(self.ranker.parameters())} scores: {exc}") from None
        return self.opt.minimize(loss, [self.position_logits])

    def step(self, batch: StepBatch) -> float:
        scores = self._scores(batch)
        estimate = self.estimate()
        self._position_update(scores, batch)
        return self._ranker_update(scores, batch, estimate)

    def estimate(self) -> PropensityEstimate:
        return dla_propensity(self.position_logits)


class UPELearner(DLALearner):
    """DLA plus the two-step policy-aware model and its backdoor readout.

    The dual IRW update still trains ``position_logits``; their softmax becomes
    the target of the position-only step, and the ranker is weighted
    by the backdoor-adjusted estimate instead of the position logits.
    """

    def __init__(self, cfg, feature_dim, n_positions, probe_features: np.ndarray):
        super().__init__(cfg, feature_dim, n_positions)
        self.lpp = LPPModel(feature_dim, n_positions,
                            rng_for(cfg.seed, cfg.algorithm, "init-lpp"),
                            embed_dim=cfg.lpp_embed_dim,
                            encoder_hidden=cfg.lpp_encoder_hidden,
                            ffn_hidden=cfg.lpp_ffn_hidden)
        self.probe_features = probe_features

    def step(self, batch: StepBatch) -> float:
        """One loop body, in order: the dual IRW update of ``position_logits``,
        document-pathway fit, position-only fit to their softmax,
        backdoor-adjusted estimate over the batch, ranker update."""
        cfg = self.cfg
        B, N, d = batch.features.shape
        scores = self._scores(batch)
        self._position_update(scores, batch)
        targets = position_targets_from_base(self.position_logits)

        confounding_effect_step(self.lpp, self.opt, batch.features,
                                batch.logging_scores, variant=cfg.target_variant)
        joint_propensity_step(self.lpp, self.opt, batch.features, targets,
                              enforce_freeze=cfg.upe_freeze)

        estimate = backdoor_estimate(self.lpp, batch.features.reshape(B * N, d))
        return self._ranker_update(scores, batch, estimate)

    def estimate(self) -> PropensityEstimate:
        """Eval-time estimate over the fixed probe documents."""
        return backdoor_estimate(self.lpp, self.probe_features)


def _build_learner(cfg: ExperimentConfig, view: DatasetView, n_positions: int,
                   curve: PositionBiasCurve):
    feature_dim = view.dataset.feature_dim
    if cfg.algorithm == "upe":
        feats = view.flat_features()
        take = min(cfg.probe_docs, feats.shape[0])
        probe_rows = rng_for(cfg.seed, "probe").choice(feats.shape[0], size=take, replace=False)
        return UPELearner(cfg, feature_dim, n_positions, feats[probe_rows])
    if cfg.algorithm == "dla":
        return DLALearner(cfg, feature_dim, n_positions)
    if cfg.algorithm == "naive":
        return IPWLearner(cfg, feature_dim, PropensityEstimate.uniform(n_positions))
    # The simulator's true relative propensities rho_k**eta / rho_1**eta.
    truth = curve.examination(cfg.simulation.eta)[:n_positions]
    return IPWLearner(cfg, feature_dim, PropensityEstimate.from_raw(truth))


def _memory_floor(cfg: ExperimentConfig, feature_dim: int, n_positions: int, rows: int) -> int:
    """Bytes a run holds at least once it steps, in closed form: each network
    parameter with its gradient and AdaGrad accumulator, and each layer's
    output over one step's ``rows`` displayed documents, all float64."""
    nets = [(feature_dim, *cfg.ranker_hidden, 1)]
    params = 0
    if cfg.algorithm == "upe":
        nets += [(feature_dim, *cfg.lpp_encoder_hidden, cfg.lpp_embed_dim),
                 (cfg.lpp_embed_dim, *cfg.lpp_ffn_hidden, 1)]
        params = n_positions * cfg.lpp_embed_dim  # the position embedding table
    params += sum(a * b + b for dims in nets for a, b in zip(dims, dims[1:]))
    outputs = rows * sum(sum(dims[1:]) for dims in nets)
    return 8 * (3 * params + outputs)


def _physical_memory() -> float:
    """The host's physical memory in bytes; unbounded where os.sysconf cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return float("inf")


def run_experiment(cfg: ExperimentConfig, data: SplitData,
                   curve: Optional[PositionBiasCurve] = None,
                   policy: Optional[LoggingPolicy] = None) -> RunResult:
    """Train one learner on simulated clicks from a logging policy.

    Without a policy, 'Off' logs with the weak linear scorer built for this
    seed and 'OnD' with a snapshot of the learner's freshly initialized
    ranker. The policy is replaced by a snapshot of the current ranker every
    refresh interval exactly when the paradigm is 'OnD'. The curve defaults
    to inverse rank over the displayed positions and never changes.
    """
    started = time.monotonic()
    if policy is None and cfg.paradigm == "Off":
        policy = train_weak_policy(data.train, cfg.weak_fraction,
                                   derive_seed(cfg.seed, "weak-policy"))
    train_view = DatasetView(data.train) if policy is None else policy.view
    if train_view.dataset is not data.train:
        raise ValueError("policy was built on a different dataset")
    n_positions = min(cfg.simulation.top_n, train_view.n_docs)
    if curve is None:
        curve = PositionBiasCurve.inverse_rank(n_positions)
    if len(curve) < n_positions:
        raise ValueError("bias curve shorter than the displayed list")
    # Every inverse weight and propensity_error divide by these probabilities.
    underflow = curve.examination(cfg.simulation.eta)[:n_positions] < np.finfo(np.float64).tiny
    if underflow.any():
        raise ValueError(f"simulation.eta={cfg.simulation.eta!r} underflows the examination "
                         f"probability at rank {np.argmax(underflow) + 1}")
    test_view = DatasetView(data.test)
    # Refused before any allocation: a run past physical memory is killed, not failed.
    need = _memory_floor(cfg, train_view.dataset.feature_dim, n_positions,
                         min(cfg.batch_queries, train_view.n_queries) * n_positions)
    have = _physical_memory()
    if need > have:
        raise ValueError(f"the run would allocate at least {need / 2**30:.3g} GiB, more than "
                         f"the {have / 2**30:.3g} GiB of physical memory")

    learner = _build_learner(cfg, train_view, n_positions, curve)
    if policy is None:
        policy = LoggingPolicy.from_ranker(learner.ranker, train_view)
    batch_rng = rng_for(cfg.seed, "batch")
    click_rng = rng_for(cfg.seed, "clicks")

    curve_rows: List[dict] = []

    def record(step: int) -> PropensityEstimate:
        est = learner.estimate()
        row = {"step": step, "algorithm": cfg.algorithm, "seed": cfg.seed}
        row.update(evaluate_ranker(learner.ranker, test_view))
        row["norm_prop@1"] = float(est.normalized()[0])
        row["prop_error"] = propensity_error(est, curve, cfg.simulation.eta)
        curve_rows.append(row)
        return est

    refresh = cfg.paradigm == "OnD"
    step = 0
    # Numpy's warnings are off: a value gone non-finite is refused with its step instead.
    try:
        with np.errstate(all="ignore"):
            estimate = record(0)
            for step in range(1, cfg.total_steps + 1):
                if refresh and step > 1 and (step - 1) % cfg.refresh_interval == 0:
                    policy = LoggingPolicy.from_ranker(learner.ranker, train_view)
                n_q = train_view.n_queries
                size = min(cfg.batch_queries, n_q)
                rows = batch_rng.choice(n_q, size=size, replace=False)
                feats, labels, log_scores = policy.displayed(rows, n_positions)
                clicks = sample_click_matrix(labels, curve, cfg.simulation, click_rng)
                learner.step(StepBatch(features=feats, clicks=clicks, logging_scores=log_scores))
                if step % cfg.eval_every == 0 or step == cfg.total_steps:
                    estimate = record(step)
    except ValueError as exc:
        raise ValueError(f"step {step}: {exc}") from None

    return RunResult(
        curve=curve_rows,
        final_metrics={col: curve_rows[-1][col] for col in METRIC_COLUMNS},
        final_estimate=estimate,
        duration_s=time.monotonic() - started,
        ranker=learner.ranker,
    )

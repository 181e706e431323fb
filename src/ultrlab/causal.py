"""Exact discrete causal analysis of position-biased click logging.

The model has five finite variables: document type ``x``, binary relevance
``r`` drawn from ``x``, displayed position ``k`` chosen by a logging policy
that also looks at ``x`` (the confounding edge), binary examination ``e``
drawn from ``k`` alone, and binary click ``c`` drawn from ``(e, r)``. Because
the policy reads ``x``, position correlates with relevance, and click-rate
ratios across positions overstate how steeply examination decays. Everything
here is exact float64 enumeration over the joint table; no sampling, no
learning.

Conditioning events are dicts mapping variable names to values, e.g.
``{"e": 1}`` given ``{"c": 1}``. Positions ``k`` are 1-based in events and
reports; ``x`` values are 0-based indices into the type support.
"""

from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

VAR_AXES = {"x": 0, "r": 1, "k": 2, "e": 3, "c": 4}

MAX_TYPES = 16
MAX_POSITIONS = 8

CLICK_RULE_AND = np.array([[0.0, 0.0], [0.0, 1.0]])


def _click_rule_with_noise(epsilon: float) -> np.ndarray:
    """P(c=1 | e, r): no click unexamined; examined clicks floor at epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return np.array([[0.0, 0.0], [epsilon, 1.0]])


@dataclass
class ToyCausalModel:
    """All conditional probability tables of the five-variable click model."""

    px: np.ndarray
    pr_given_x: np.ndarray
    pk_given_x: np.ndarray
    pe_given_k: np.ndarray
    pc_given_er: np.ndarray = field(default_factory=lambda: CLICK_RULE_AND.copy())

    def __post_init__(self):
        self.px = np.asarray(self.px, dtype=np.float64)
        self.pr_given_x = np.asarray(self.pr_given_x, dtype=np.float64)
        self.pk_given_x = np.asarray(self.pk_given_x, dtype=np.float64)
        self.pe_given_k = np.asarray(self.pe_given_k, dtype=np.float64)
        self.pc_given_er = np.asarray(self.pc_given_er, dtype=np.float64)
        nx, nk = self.n_types, self.n_positions
        if nx > MAX_TYPES or nk > MAX_POSITIONS:
            raise ValueError(
                f"supports capped at {MAX_TYPES} types x {MAX_POSITIONS} positions"
            )
        if self.px.shape != (nx,) or self.pr_given_x.shape != (nx,):
            raise ValueError("px and pr_given_x must be 1-D over the type support")
        if self.pk_given_x.shape != (nx, nk):
            raise ValueError("pk_given_x must be (n_types, n_positions)")
        if self.pc_given_er.shape != (2, 2):
            raise ValueError("pc_given_er must be (2, 2), indexed [e, r]")
        for arr, name in [
            (self.px, "px"), (self.pr_given_x, "pr_given_x"),
            (self.pk_given_x, "pk_given_x"), (self.pe_given_k, "pe_given_k"),
            (self.pc_given_er, "pc_given_er"),
        ]:
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if abs(self.px.sum() - 1.0) > 1e-9:
            raise ValueError("px must sum to 1")
        if np.any(np.abs(self.pk_given_x.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("every row of pk_given_x must sum to 1")

    @property
    def n_types(self) -> int:
        return self.px.size

    @property
    def n_positions(self) -> int:
        return self.pe_given_k.size

    @classmethod
    def reference(cls, epsilon: float = 0.0) -> "ToyCausalModel":
        """Two types, two positions, a strongly relevance-aware policy.

        Clicks concentrate at position 1 both because it is examined more and
        because the policy puts relevant documents there; the report methods
        separate the two effects.
        """
        rule = CLICK_RULE_AND.copy() if epsilon == 0.0 else _click_rule_with_noise(epsilon)
        return cls(
            px=np.array([0.5, 0.5]),
            pr_given_x=np.array([0.9, 0.2]),
            pk_given_x=np.array([[0.9, 0.1], [0.1, 0.9]]),
            pe_given_k=np.array([1.0, 0.5]),
            pc_given_er=rule,
        )

    def with_weak_policy(self) -> "ToyCausalModel":
        """Same model but a policy that ignores x: the confounding vanishes."""
        nk = self.n_positions
        return ToyCausalModel(
            px=self.px.copy(),
            pr_given_x=self.pr_given_x.copy(),
            pk_given_x=np.full((self.n_types, nk), 1.0 / nk),
            pe_given_k=self.pe_given_k.copy(),
            pc_given_er=self.pc_given_er.copy(),
        )


@dataclass
class JointTable:
    """P(x, r, k, e, c) on axes (x, r, k, e, c); k stored 0-based internally."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 5:
            raise ValueError("joint table must have axes (x, r, k, e, c)")
        if np.any(self.table < 0.0):
            raise ValueError("joint table has negative mass")
        if abs(self.table.sum() - 1.0) > 1e-12:
            raise ValueError("joint table must sum to 1 within 1e-12")

    def mass(self, event: Mapping[str, int]) -> float:
        """Total probability of an assignment to a subset of the variables."""
        sub = self.table
        for var in sorted(event, key=lambda v: VAR_AXES[v], reverse=True):
            val = int(event[var])
            if var == "k":
                val -= 1
            if not 0 <= val < sub.shape[VAR_AXES[var]]:
                raise ValueError(f"value {event[var]} out of range for {var!r}")
            sub = np.take(sub, val, axis=VAR_AXES[var])
        return float(sub.sum())


def enumerate_joint(model: ToyCausalModel) -> JointTable:
    """Multiply the factorization out into the full joint, one cell at a time."""
    nx, nk = model.n_types, model.n_positions
    px = model.px.reshape(nx, 1, 1, 1, 1)
    pr = np.stack([1.0 - model.pr_given_x, model.pr_given_x], axis=1)
    pr = pr.reshape(nx, 2, 1, 1, 1)
    pk = model.pk_given_x.reshape(nx, 1, nk, 1, 1)
    pe = np.stack([1.0 - model.pe_given_k, model.pe_given_k], axis=1)
    pe = pe.reshape(1, 1, nk, 2, 1)
    # pc_given_er is indexed [e, r]; lay it out on axes (r, e, c).
    pc_block = np.empty((2, 2, 2))
    for e in (0, 1):
        for r in (0, 1):
            p1 = model.pc_given_er[e, r]
            pc_block[r, e, 0] = 1.0 - p1
            pc_block[r, e, 1] = p1
    pc = pc_block.reshape(1, 2, 1, 2, 2)
    return JointTable(table=px * pr * pk * pe * pc)


def conditional(table: JointTable, target: Mapping[str, int], given: Mapping[str, int]) -> float:
    """P(target | given) from a joint table; raises if the condition has no mass."""
    overlap = set(target) & set(given)
    for var in overlap:
        if target[var] != given[var]:
            return 0.0
    denom = table.mass(given) if given else 1.0
    if denom <= 0.0:
        raise ValueError(f"conditioning event {dict(given)} has zero probability")
    joint_event = {**given, **target}
    return table.mass(joint_event) / denom


def intervene(model: ToyCausalModel, do_k: int) -> ToyCausalModel:
    """The mutilated model: the policy is replaced by a point mass at do_k."""
    nk = model.n_positions
    if not 1 <= do_k <= nk:
        raise ValueError(f"do_k must lie in [1, {nk}]")
    forced = np.zeros((model.n_types, nk))
    forced[:, do_k - 1] = 1.0
    return ToyCausalModel(
        px=model.px.copy(),
        pr_given_x=model.pr_given_x.copy(),
        pk_given_x=forced,
        pe_given_k=model.pe_given_k.copy(),
        pc_given_er=model.pc_given_er.copy(),
    )


def interventional(
    model: ToyCausalModel, do_k: int, target: Mapping[str, int], given: Mapping[str, int]
) -> float:
    """P(target | given) after forcing the position: enumerate the cut graph.

    Conditioning events (including the given) are evaluated in the mutilated
    joint, where the only path from x to examination runs through the click.
    """
    return conditional(enumerate_joint(intervene(model, do_k)), target, given)


@dataclass
class OverestimationReport:
    """Per-position comparison of the naive estimand against the causal truth."""

    positions: np.ndarray
    observed_ctr: np.ndarray
    estimand: np.ndarray
    causal: np.ndarray

    @property
    def overestimation(self) -> np.ndarray:
        """How much the position-only estimand inflates each true propensity."""
        return self.estimand / self.causal

    def as_csv(self) -> str:
        lines = ["position,observed_ctr,estimand,causal,overestimation"]
        over = self.overestimation
        for i, k in enumerate(self.positions):
            lines.append(
                f"{k},{float(self.observed_ctr[i])!r},{float(self.estimand[i])!r},"
                f"{float(self.causal[i])!r},{float(over[i])!r}"
            )
        return "\n".join(lines) + "\n"

    def as_text_table(self) -> str:
        header = f"{'pos':>3}  {'CTR':>10}  {'estimand':>10}  {'causal':>10}  {'overest.':>10}"
        rows = [header, "-" * len(header)]
        for i, k in enumerate(self.positions):
            rows.append(
                f"{k:>3}  {self.observed_ctr[i]:>10.6f}  {self.estimand[i]:>10.6f}  "
                f"{self.causal[i]:>10.6f}  {self.overestimation[i]:>10.6f}"
            )
        return "\n".join(rows)


def overestimation_report(model: ToyCausalModel) -> OverestimationReport:
    """Quantify, per position, how far click ratios overstate examination decay.

    The position-only estimand divides the click-through rate at a position by
    the examined-click rate averaged over the type prior (marginal relevance
    under the noiseless click rule). A relevance-aware policy makes this
    exceed the interventional examination probability at the top positions.
    """
    joint = enumerate_joint(model)
    nk = model.n_positions
    marginal_examined_ctr = float(
        np.sum(model.px * (model.pc_given_er[1, 1] * model.pr_given_x
                           + model.pc_given_er[1, 0] * (1.0 - model.pr_given_x)))
    )
    observed = np.empty(nk)
    causal = np.empty(nk)
    for k in range(1, nk + 1):
        observed[k - 1] = conditional(joint, {"c": 1}, {"k": k})
        causal[k - 1] = interventional(model, k, {"e": 1}, {})
    return OverestimationReport(
        positions=np.arange(1, nk + 1),
        observed_ctr=observed,
        estimand=observed / marginal_examined_ctr,
        causal=causal,
    )

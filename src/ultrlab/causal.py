"""Exact discrete causal analysis of position-biased click logging.

The model has five finite variables: document type ``x``, binary relevance
``r`` drawn from ``x``, displayed position ``k`` chosen by a logging policy
that also looks at ``x`` (the confounding edge), binary examination ``e``
drawn from ``k`` alone, and binary click ``c`` drawn from ``(e, r)``. Because
the policy reads ``x``, position correlates with relevance, and click-rate
ratios across positions overstate how steeply examination decays. Everything
here is exact float64 enumeration; no sampling, no learning.

The oracle is two arrays on axes ``(x, r, k, e, c)``, every index 0-based, so
index ``k`` is rank ``k + 1``. ``enumerate_joint`` is the joint
P(x, r, k, e, c). ``interventional_joint`` is the same product without the
policy factor (Pearl's truncated factorization): its slice ``[:, :, k]`` is
the joint of (x, r, e, c) under do(K = k + 1). Events are index slices and
conditionals are ratios of their sums. Reports give ranks 1-based.
"""

from dataclasses import dataclass, field

import numpy as np

MAX_TYPES = 16
MAX_POSITIONS = 8


def _click_rule_with_noise(epsilon: float) -> np.ndarray:
    """P(c=1 | e, r): no click unexamined; examined clicks floor at epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return np.array([[0.0, 0.0], [epsilon, 1.0]])


@dataclass
class ToyCausalModel:
    """The probability table of each factor of the five-variable click model."""

    px: np.ndarray
    pr_given_x: np.ndarray
    pk_given_x: np.ndarray
    pe_given_k: np.ndarray
    pc_given_er: np.ndarray = field(default_factory=lambda: _click_rule_with_noise(0.0))

    def __post_init__(self):
        tables = ("px", "pr_given_x", "pk_given_x", "pe_given_k", "pc_given_er")
        for name in tables:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        nx, nk = self.n_types, self.n_positions
        if nx > MAX_TYPES or nk > MAX_POSITIONS:
            raise ValueError(f"supports capped at {MAX_TYPES} types x {MAX_POSITIONS} positions")
        if self.px.shape != (nx,) or self.pr_given_x.shape != (nx,):
            raise ValueError("px and pr_given_x must be 1-D over the type support")
        if self.pk_given_x.shape != (nx, nk) or self.pe_given_k.shape != (nk,):
            raise ValueError("pk_given_x must be (n_types, n_positions), pe_given_k (n_positions,)")
        if self.pc_given_er.shape != (2, 2):
            raise ValueError("pc_given_er must be (2, 2), indexed [e, r]")
        for name in tables:
            arr = getattr(self, name)
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
        return cls(
            px=np.array([0.5, 0.5]),
            pr_given_x=np.array([0.9, 0.2]),
            pk_given_x=np.array([[0.9, 0.1], [0.1, 0.9]]),
            pe_given_k=np.array([1.0, 0.5]),
            pc_given_er=_click_rule_with_noise(epsilon),
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


def _factor_product(model: ToyCausalModel, pk) -> np.ndarray:
    """px * pr * pk * pe * pc on axes (x, r, k, e, c). ``pk`` is the policy
    factor, or 1.0 to leave it out: a product with 1.0 rounds nothing."""
    nx, nk = model.n_types, model.n_positions
    pr, pe = model.pr_given_x, model.pe_given_k
    pr = np.stack([1.0 - pr, pr], axis=1).reshape(nx, 2, 1, 1, 1)
    pe = np.stack([1.0 - pe, pe], axis=1).reshape(1, 1, nk, 2, 1)
    # pc_given_er is indexed [e, r]; its transpose stacked over c is (r, e, c).
    pc = model.pc_given_er.T
    pc = np.stack([1.0 - pc, pc], axis=-1).reshape(1, 2, 1, 2, 2)
    return model.px.reshape(nx, 1, 1, 1, 1) * pr * pk * pe * pc


def enumerate_joint(model: ToyCausalModel) -> np.ndarray:
    """P(x, r, k, e, c): the full factorization multiplied out."""
    pk = model.pk_given_x.reshape(model.n_types, 1, model.n_positions, 1, 1)
    return _factor_product(model, pk)


def interventional_joint(model: ToyCausalModel) -> np.ndarray:
    """The factorization without the policy factor (truncated factorization).

    Slice ``[:, :, k]`` is P(x, r, e, c | do(K=k+1)): forcing the position
    cuts the edge from x to k and leaves every other factor as it was.
    """
    return _factor_product(model, 1.0)


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
    exceed the examination probability under do(K=k) at the top positions.
    """
    joint = enumerate_joint(model)
    cut = interventional_joint(model)
    nk = model.n_positions
    marginal_examined_ctr = float(
        np.sum(model.px * (model.pc_given_er[1, 1] * model.pr_given_x
                           + model.pc_given_er[1, 0] * (1.0 - model.pr_given_x)))
    )
    observed = np.array([joint[:, :, k, :, 1].sum() / joint[:, :, k].sum()
                         for k in range(nk)])
    causal = np.array([cut[:, :, k, 1].sum() for k in range(nk)])
    return OverestimationReport(
        positions=np.arange(1, nk + 1),
        observed_ctr=observed,
        estimand=observed / marginal_examined_ctr,
        causal=causal,
    )

"""Position-based click simulation.

A user examines rank ``k`` with probability ``rho_k ** eta`` and, having
examined, clicks with the graded perceived-relevance probability
``epsilon + (1 - epsilon) * (2**y - 1) / (2**Y_MAX - 1)``, where ``Y_MAX``
is the top grade ``data.Y_MAX``. A click requires both: ``c = e and r``.
Examinations and relevance draws are latent; only clicks are logged.
"""

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import Y_MAX


def check_field_types(config) -> None:
    """Reject config values whose type does not match the field's annotation.

    Integer fields take integers only (a bool is not a count), float fields
    take integers or floats but no bools, and tuple fields take a list or
    tuple of positive integers. Values from JSON or ``--set`` arrive untyped,
    so this runs before any range check compares them.
    """
    def is_a(value, kind):
        return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))

    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is tuple:
            ok = isinstance(value, (list, tuple)) and all(
                is_a(v, numbers.Integral) and v > 0 for v in value)
        else:
            ok = is_a(value, {int: numbers.Integral, float: numbers.Real}.get(f.type, f.type))
        if not ok:
            want = "a list of positive ints" if f.type is tuple else f.type.__name__
            raise ValueError(f"{f.name} must be {want}, got {value!r}")


@dataclass
class SimulationConfig:
    """Knobs of the click model."""

    eta: float = 1.0
    epsilon: float = 0.1
    top_n: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.eta < np.inf:
            raise ValueError(f"eta must be finite and non-negative, got {self.eta!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")


@dataclass
class PositionBiasCurve:
    """Examination probabilities per displayed rank, index 0 holding rank 1."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("curve must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve has non-finite values")
        if np.any(self.values <= 0.0) or np.any(self.values > 1.0):
            raise ValueError("curve values must lie in (0, 1]")

    def __len__(self) -> int:
        return self.values.size

    @classmethod
    def inverse_rank(cls, n_positions: int) -> "PositionBiasCurve":
        """The default curve rho_k = 1/k."""
        if n_positions < 1:
            raise ValueError("n_positions must be >= 1")
        return cls(values=1.0 / np.arange(1, n_positions + 1, dtype=np.float64))

    @classmethod
    def from_file(cls, path) -> "PositionBiasCurve":
        """Load one float per line (blank lines and # comments skipped); a refusal
        names the path, and the line of a value that is not a float or lies
        outside (0, 1]."""
        vals = []
        with open(path) as fh:
            for n, raw in enumerate(fh, start=1):
                line = raw.partition("#")[0].strip()
                if line:
                    try:
                        vals.append(float(line))
                    except ValueError:
                        raise ValueError(f"{path}: line {n}: not a float: {line!r}") from None
                    try:
                        cls(values=vals[-1:])
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {n}: {exc}") from None
        try:
            return cls(values=np.array(vals, dtype=np.float64))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def examination(self, eta: float) -> np.ndarray:
        """Examination probabilities rho_k ** eta for every rank."""
        return self.values ** eta


def perceived_relevance_probability(labels, config: SimulationConfig) -> np.ndarray:
    """P(r=1 | y) for graded labels, the epsilon-floored exponential gain map."""
    y = np.asarray(labels, dtype=np.float64)
    if np.any(y < 0) or np.any(y > Y_MAX):
        raise ValueError(f"labels must lie in [0, {Y_MAX}]")
    gain = (np.power(2.0, y) - 1.0) / (2.0 ** Y_MAX - 1.0)
    return config.epsilon + (1.0 - config.epsilon) * gain


def sample_click_matrix(
    ranked_labels: np.ndarray,
    curve: PositionBiasCurve,
    config: SimulationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized session sampling: one row of clicks per already-ranked label row."""
    ranked_labels = np.asarray(ranked_labels)
    if ranked_labels.ndim != 2:
        raise ValueError("ranked_labels must be (batch, positions)")
    n_pos = ranked_labels.shape[1]
    if n_pos > len(curve):
        raise ValueError(f"{n_pos} positions exceed curve length {len(curve)}")
    exam_p = curve.examination(config.eta)[:n_pos]
    rel_p = perceived_relevance_probability(ranked_labels, config)
    examined = rng.random(ranked_labels.shape) < exam_p
    relevant = rng.random(ranked_labels.shape) < rel_p
    return (examined & relevant).astype(np.int8)

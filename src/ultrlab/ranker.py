"""The relevance scorer f(x), its snapshot reader, and its propensity-weighted
listwise loss."""

import zipfile
from typing import Optional, Sequence

import numpy as np

from .autodiff import MLP, Parameter, Tensor, load_params, weighted_listwise_ce
from .propensity import DEFAULT_TAU, PropensityEstimate, clipped_inverse_weights

DEFAULT_HIDDEN = (64, 32, 16)
DEFAULT_DROPOUT = 0.1


class RankerMLP:
    """Per-document scorer: feedforward net with ELU, dropout, scalar output."""

    def __init__(self, feature_dim: int, rng: np.random.Generator,
                 hidden: Sequence[int] = DEFAULT_HIDDEN, dropout: float = DEFAULT_DROPOUT):
        if feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        self.feature_dim = feature_dim
        self.net = MLP(feature_dim, hidden, 1, rng, "ranker", dropout=dropout)

    @classmethod
    def from_snapshot(cls, path) -> "RankerMLP":
        """The ranker a ``train`` snapshot holds. Each hidden width is the out side
        of an (in, out) weight ``ranker.l{i}.W`` but the last, and the input width
        is the in side of ``ranker.l0.W``; ``load_params`` refuses a missing,
        misshapen or non-finite parameter by name."""
        try:
            archive = np.load(path)
        except (EOFError, ValueError, zipfile.BadZipFile):
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{path} is not an npz archive from train")
        hidden = []
        with archive:
            while f"ranker.l{len(hidden) + 1}.W" in archive.files:
                hidden.append(archive[f"ranker.l{len(hidden)}.W"].shape[-1])
            # Any width will do for a missing or 0-d ranker.l0.W: load_params refuses it.
            shape = archive["ranker.l0.W"].shape if "ranker.l0.W" in archive.files else ()
        ranker = cls(shape[0] if shape else 1, np.random.default_rng(0), hidden=hidden)
        load_params(path, ranker.parameters())
        return ranker

    def _rows(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise ValueError(f"features must be (n, {self.feature_dim})")
        if X.shape[0] == 0:
            raise ValueError("empty document list")
        return X

    def forward(self, features: np.ndarray, rng: Optional[np.random.Generator] = None) -> Tensor:
        """A column of scores, one per feature row; dropout runs exactly when given an rng."""
        return self.net(Tensor(self._rows(features)), rng=rng)

    def score(self, features: np.ndarray) -> np.ndarray:
        """Eval-mode score column as a plain array, built with no tape."""
        return self.net.infer(self._rows(features))

    def parameters(self) -> Sequence[Parameter]:
        return self.net.parameters()


def ipw_ranking_loss(scores: Tensor, clicks: np.ndarray,
                     propensity: PropensityEstimate, tau: float = DEFAULT_TAU) -> Tensor:
    """Inverse-propensity-weighted listwise softmax cross-entropy on clicks.

    Each clicked position k contributes its negative log softmax score times
    w_k = weight_1 / max(weight_k, tau); unclicked positions only enter
    through the softmax normalizer. Rows are whole sessions; the loss is the
    mean over rows. The estimate has one weight per displayed position.
    """
    weights = propensity.weights
    c = np.asarray(clicks, dtype=np.float64)
    if c.shape != scores.data.shape:
        raise ValueError("clicks must match scores shape")
    n_pos = scores.data.shape[-1]
    if weights.size != n_pos:
        raise ValueError(f"propensity covers {weights.size} positions, the list has {n_pos}")
    return weighted_listwise_ce(scores, c * clipped_inverse_weights(weights, tau))

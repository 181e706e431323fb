"""Anatomy of one policy-aware propensity iteration, printed step by step.

Builds a tiny batch by hand and walks the two-step update: fit the document
pathway to compressed policy targets, then hold it fixed while the position
embeddings alone fit base-model targets, then read the backdoor-adjusted
estimate. Each stage prints which parameter block moved, so the freeze
contract is visible rather than implied.
"""

import numpy as np

from ultrlab.autodiff import AdaGrad, Parameter
from ultrlab.propensity import (
    LPPModel,
    backdoor_estimate,
    confounding_effect_step,
    joint_propensity_step,
    position_targets_from_base,
    target_weights,
)


def snapshot(params):
    return [p.data.copy() for p in params]


def moved(params, before):
    return [p.name for p, b in zip(params, before)
            if not np.array_equal(p.data, b)]


def main():
    rng = np.random.default_rng(0)
    n_positions, feature_dim = 4, 3
    model = LPPModel(feature_dim, n_positions, rng, embed_dim=4,
                     encoder_hidden=(6,), ffn_hidden=(5,))
    opt = AdaGrad(lr=0.1)

    features = rng.uniform(size=(2, n_positions, feature_dim))
    logging_scores = np.sort(rng.normal(size=(2, n_positions)))[:, ::-1]
    print("policy targets (softmax of compressed logging scores):")
    print(np.round(target_weights("logging_scores", logging_scores, 2,
                                  n_positions), 4))

    base = Parameter(np.log([[0.4, 0.3, 0.2, 0.1]]), "position_logits")
    targets = position_targets_from_base(base)
    print("\nposition targets from the base model (log scale):",
          np.round(targets, 4))

    for iteration in range(1, 4):
        before_doc = snapshot(model.g_pt)
        before_pos = snapshot(model.g_pos)
        confounding_effect_step(model, opt, features, logging_scores)
        print(f"\niteration {iteration}, document-pathway step moved:",
              moved(model.g_pt, before_doc) or "nothing")
        print("  position table untouched:",
              moved(model.g_pos, before_pos) == [])

        before_doc = snapshot(model.g_pt)
        before_pos = snapshot(model.g_pos)
        joint_propensity_step(model, opt, features, targets)
        print("  position-only step moved:", moved(model.g_pos, before_pos))
        print("  frozen pathway untouched:",
              moved(model.g_pt, before_doc) == [])

    est = backdoor_estimate(model, features.reshape(-1, feature_dim))
    print("\nbackdoor-adjusted estimate after three iterations:",
          np.round(est.weights, 4))
    print("base-model softmax it was pulled toward:",
          np.round(np.exp(targets) / np.exp(targets)[0], 4))


if __name__ == "__main__":
    main()

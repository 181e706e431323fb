"""Walk through the position-based click simulator on a toy ranking.

Shows the examination curve, perceived relevance for each grade, the
displayed order a scoring policy produces, a few sampled sessions, and a
Monte Carlo check that empirical click rates land on the closed-form
expectation rho_k**eta * P(r=1 | y).
"""

import argparse

import numpy as np

from ultrlab.clicks import (
    PositionBiasCurve,
    SimulationConfig,
    perceived_relevance_probability,
    sample_click_matrix,
)
from ultrlab.data import Dataset
from ultrlab.training import DatasetView, LoggingPolicy, rank_view_scores


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eta", type=float, default=1.0,
                        help="position bias steepness exponent")
    parser.add_argument("--epsilon", type=float, default=0.1,
                        help="click noise on irrelevant documents")
    parser.add_argument("--sessions", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = SimulationConfig(eta=args.eta, epsilon=args.epsilon)
    labels = np.array([3, 0, 4, 1, 2])
    curve = PositionBiasCurve.inverse_rank(labels.size)
    rng = np.random.default_rng(args.seed)

    print("examination probability by rank (1/k curve, eta =", args.eta, ")")
    exam = curve.examination(args.eta)
    for k, e in enumerate(exam, start=1):
        print(f"  rank {k}: {e:.4f}")

    print("\nperceived relevance P(r=1 | y) by grade:")
    for y, p in enumerate(perceived_relevance_probability(np.arange(5), config)):
        print(f"  grade {y}: {p:.4f}")

    scores = np.array([0.3, 0.9, 0.1, 0.5, 0.9])
    query = Dataset(features=scores[:, None], labels=labels,
                    doc_ids=[f"d{i}" for i in range(labels.size)],
                    query_ids=["q0"], offsets=[0, labels.size])
    policy = LoggingPolicy.from_linear(np.ones(1), DatasetView(query))
    print(f"\ndisplayed order for scores {scores.tolist()} (ties by doc id):")
    print("  ", [f"d{i}" for i in rank_view_scores(policy.scores)[0]])

    _, shown, _ = policy.displayed(np.array([0]), config.top_n)
    print("\nthree sampled sessions over displayed labels", shown[0].tolist())
    for clicks in sample_click_matrix(np.repeat(shown, 3, axis=0), curve, config, rng):
        print("  clicked", clicks.tolist())

    tiled = np.tile(labels, (args.sessions, 1))
    clicks = sample_click_matrix(tiled, curve, config, rng)
    expected = exam * perceived_relevance_probability(labels, config)
    print(f"\nclick rate over {args.sessions} sessions vs expectation:")
    print("  rank  label  empirical  expected")
    for k in range(labels.size):
        print(f"  {k + 1:4d}  {labels[k]:5d}  {clicks[:, k].mean():9.4f}"
              f"  {expected[k]:8.4f}")


if __name__ == "__main__":
    main()

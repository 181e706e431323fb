"""Offline comparison of the four learners on a weak-policy click log.

Trains naive, dual, policy-aware, and oracle-weighted rankers from clicks
logged by a policy fit on a small fraction of the labels, then prints test
nDCG and the final propensity estimates side by side. Scale down the steps
for a quick look; the defaults take a couple of minutes.
"""

import argparse

import numpy as np

from ultrlab.training import ExperimentConfig, make_split_data, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--queries", type=int, default=500)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--weak-fraction", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    refresh = args.steps
    data = make_split_data(n_train=args.queries, n_test=max(args.queries // 5, 10))
    fraction = args.weak_fraction
    if fraction * args.queries < 1.0:
        fraction = 1.0 / args.queries
        print(f"weak fraction raised to {fraction:.3f} so at least one "
              f"query carries labels")
    results = {}
    for algorithm in ("naive", "dla", "upe", "ipw_oracle"):
        cfg = ExperimentConfig(paradigm="Off", algorithm=algorithm,
                               total_steps=args.steps, refresh_interval=refresh,
                               learning_rate=args.lr, seed=args.seed,
                               weak_fraction=fraction,
                               eval_every=max(args.steps // 10, 1))
        results[algorithm] = run_experiment(cfg, data)
        print(f"{algorithm:>10}: trained in "
              f"{results[algorithm].duration_s:5.1f}s")

    print(f"\ntest metrics after {args.steps} steps "
          f"(weak policy fraction {fraction}):")
    print(f"{'algorithm':>10}  {'ndcg@10':>8}  {'err@10':>8}  {'prop@1/prop@10':>14}")
    for algorithm, result in results.items():
        m = result.final_metrics
        print(f"{algorithm:>10}  {m['ndcg@10']:8.4f}  {m['err@10']:8.4f}"
              f"  {m['norm_prop@1']:14.2f}")

    print("\nfinal relative propensity by rank (truth is the 1/k curve):")
    ranks = np.arange(1, len(results["upe"].final_estimate) + 1)
    print("  rank   truth    dla      upe")
    for k in ranks:
        dla_w = results["dla"].final_estimate.weights[k - 1]
        upe_w = results["upe"].final_estimate.weights[k - 1]
        print(f"  {k:4d}  {1.0 / k:6.3f}  {dla_w:7.3f}  {upe_w:7.3f}")


if __name__ == "__main__":
    main()

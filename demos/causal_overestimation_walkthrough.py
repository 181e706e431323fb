"""Why a position-only propensity estimand overestimates examination decay.

Builds the small discrete causal model where document type confounds
position and relevance, enumerates the exact joint distribution, and prints
the position-only estimand next to the true examination under do(K). With
the reference policy the estimand inflates the position-1 weight by about
1.509x and the rank-1-to-rank-2 ratio to ~6.15 where the causal ratio is 2.
Flattening the policy (so position no longer depends on the document)
collapses the gap to zero, which is the signature of confounding rather
than noise.
"""

import argparse

from ultrlab.causal import ToyCausalModel, overestimation_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.0,
                        help="click noise on examined irrelevant documents")
    args = parser.parse_args()

    strong = ToyCausalModel.reference(epsilon=args.epsilon)
    print("reference model, relevance-correlated logging policy")
    print(overestimation_report(strong).as_text_table())

    flat = strong.with_weak_policy()
    print("\nsame model with a position assignment independent of the type")
    print(overestimation_report(flat).as_text_table())

    report = overestimation_report(strong)
    ratio_est = report.estimand[0] / report.estimand[1]
    ratio_cau = report.causal[0] / report.causal[1]
    print(f"\nposition 1 vs 2 weight ratio: estimand {ratio_est:.3f}, "
          f"causal {ratio_cau:.3f}")
    print(f"overestimation factor at position 1: "
          f"{report.overestimation[0]:.6f}")


if __name__ == "__main__":
    main()

"""Desk-scale unbiased learning-to-rank laboratory.

Simulated position-biased clicks, a from-scratch reverse-mode autodiff
engine, inverse-propensity-weighted listwise training, a logging-policy-aware
propensity model with backdoor-adjusted inference, and an exact discrete
causal oracle for quantifying propensity overestimation.
"""

__version__ = "0.1.0"

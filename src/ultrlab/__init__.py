"""Desk-scale unbiased learning-to-rank laboratory.

Simulated position-biased clicks, a from-scratch reverse-mode autodiff
engine, inverse-propensity-weighted listwise training, a logging-policy-aware
propensity model with backdoor-adjusted inference, and an exact discrete
causal oracle for quantifying propensity overestimation.
"""

__version__ = "0.1.0"

from .causal import (
    OverestimationReport,
    ToyCausalModel,
    enumerate_joint,
    interventional_joint,
    overestimation_report,
)
from .clicks import (
    PositionBiasCurve,
    SimulationConfig,
    perceived_relevance_probability,
    sample_click_matrix,
)
from .data import (
    Dataset,
    ParseError,
    generate_synthetic,
    parse_svmlight,
    serialize_svmlight,
)
from .metrics import propensity_error, ranking_metrics
from .propensity import (
    FreezeContractError,
    LPPModel,
    PositionPropensityModel,
    PropensityEstimate,
    backdoor_estimate,
    confounding_effect_step,
    dla_propensity,
    irw_propensity_loss,
    joint_propensity_step,
    position_targets_from_base,
)
from .ranker import RankerMLP, ipw_ranking_loss
from .training import (
    ExperimentConfig,
    LoggingPolicy,
    RunResult,
    SplitData,
    make_split_data,
    run_experiment,
    train_weak_policy,
)

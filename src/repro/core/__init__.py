"""Core substrate: configurations, dynamics zoo, adversaries, process runner."""

from .adversary import (
    Adversary,
    BalancingAdversary,
    RandomAdversary,
    ReviveAdversary,
    TargetedAdversary,
)
from .config import Configuration
from .dynamics import CountsDynamics, Dynamics
from .majority import HPlurality, ThreeMajority, TwoSampleUniform, three_majority_law
from .median import MedianDynamics
from .metrics import Metric, RecordSpec, TraceSet, as_record_spec, stack_traces
from .population import (
    PairwiseProtocol,
    PairwiseVoter,
    PopulationProcess,
    PopulationResult,
    UndecidedPopulation,
)
from .process import (
    ENGINE_SCHEMA_VERSION,
    ENSEMBLE_ENGINES,
    EnsembleResult,
    ProcessResult,
    run_ensemble,
    run_process,
    sparse_ineligibility,
)
from .registry import ADVERSARIES, DYNAMICS, METRICS, STOPPING, TOPOLOGIES, WORKLOADS, Registry
from .rng import derive_seed, make_rng, spawn_streams
from .stopping import (
    AnyOfStop,
    BiasThresholdStop,
    MetricThresholdStop,
    MonochromaticStop,
    PluralityFractionStop,
    RoundBudgetStop,
    StoppingRule,
    stopping_from_dict,
)
from .support import scatter_counts
from .threeinput import (
    DISTINCT_PATTERNS,
    PAIR_PATTERNS,
    ThreeInputRule,
    all_position_rules,
    first_rule,
    majority_rule,
    majority_uniform_rule,
    max_rule,
    median_rule,
    min_rule,
    skewed_rule,
    three_input_rule,
)
from .undecided import UndecidedState
from .voter import TwoChoices, Voter

__all__ = [
    "ADVERSARIES",
    "Adversary",
    "AnyOfStop",
    "BalancingAdversary",
    "BiasThresholdStop",
    "Configuration",
    "CountsDynamics",
    "DISTINCT_PATTERNS",
    "DYNAMICS",
    "Dynamics",
    "ENGINE_SCHEMA_VERSION",
    "ENSEMBLE_ENGINES",
    "EnsembleResult",
    "HPlurality",
    "METRICS",
    "TOPOLOGIES",
    "MedianDynamics",
    "Metric",
    "MetricThresholdStop",
    "MonochromaticStop",
    "PairwiseProtocol",
    "PairwiseVoter",
    "PopulationProcess",
    "PopulationResult",
    "PAIR_PATTERNS",
    "PluralityFractionStop",
    "ProcessResult",
    "RandomAdversary",
    "RecordSpec",
    "Registry",
    "ReviveAdversary",
    "RoundBudgetStop",
    "STOPPING",
    "StoppingRule",
    "TraceSet",
    "TargetedAdversary",
    "ThreeInputRule",
    "ThreeMajority",
    "WORKLOADS",
    "TwoChoices",
    "TwoSampleUniform",
    "UndecidedPopulation",
    "UndecidedState",
    "Voter",
    "all_position_rules",
    "as_record_spec",
    "derive_seed",
    "first_rule",
    "majority_rule",
    "majority_uniform_rule",
    "make_rng",
    "max_rule",
    "median_rule",
    "min_rule",
    "run_ensemble",
    "run_process",
    "scatter_counts",
    "skewed_rule",
    "sparse_ineligibility",
    "spawn_streams",
    "stack_traces",
    "stopping_from_dict",
    "three_input_rule",
    "three_majority_law",
]

"""repro — a reproduction of *Simple Dynamics for Plurality Consensus*.

Becchetti, Clementi, Natale, Pasquale, Silvestri, Trevisan (SPAA 2014;
Distributed Computing 30(4), 2017).

The package simulates and analyses anonymous plurality-consensus dynamics
on the clique (and, as an extension, on general graphs):

* :mod:`repro.core` — configurations, the dynamics zoo (3-majority,
  h-plurality, median, undecided-state, voter, two-choices, the full
  3-input class of Theorem 3), F-bounded adversaries, process runners;
* :mod:`repro.analysis` — the paper's exact expectation formulas, Chernoff
  machinery, exact Markov-chain ground truth, scaling-law fitting;
* :mod:`repro.graphs` — replica-batched simulation on arbitrary topologies
  (named generators in :data:`repro.core.registry.TOPOLOGIES`, reachable
  from a :class:`~repro.scenario.ScenarioSpec` via its ``topology`` field);
* :mod:`repro.experiments` — the E1–E12 experiment suite reproducing each
  theorem/lemma of the paper, plus the beyond-the-paper topology family
  E13 (``repro list`` prints the index; README.md describes the suite).

Quickstart
----------
>>> from repro import Configuration, ThreeMajority, run_process
>>> cfg = Configuration.biased(n=100_000, k=10, bias=6_000)
>>> result = run_process(ThreeMajority(), cfg, rng=0)
>>> result.plurality_won, result.rounds  # doctest: +SKIP
(True, 23)
"""

import importlib

from .core import (
    ADVERSARIES,
    DYNAMICS,
    METRICS,
    STOPPING,
    TOPOLOGIES,
    WORKLOADS,
    Adversary,
    AnyOfStop,
    BalancingAdversary,
    BiasThresholdStop,
    Configuration,
    CountsDynamics,
    Dynamics,
    EnsembleResult,
    HPlurality,
    MedianDynamics,
    Metric,
    MetricThresholdStop,
    MonochromaticStop,
    PluralityFractionStop,
    RecordSpec,
    TraceSet,
    PairwiseProtocol,
    PairwiseVoter,
    PopulationProcess,
    PopulationResult,
    ProcessResult,
    RandomAdversary,
    ReviveAdversary,
    RoundBudgetStop,
    StoppingRule,
    TargetedAdversary,
    ThreeInputRule,
    ThreeMajority,
    TwoChoices,
    TwoSampleUniform,
    UndecidedPopulation,
    UndecidedState,
    Voter,
    all_position_rules,
    first_rule,
    majority_rule,
    majority_uniform_rule,
    make_rng,
    max_rule,
    median_rule,
    min_rule,
    run_ensemble,
    run_process,
    skewed_rule,
    sparse_ineligibility,
    spawn_streams,
    stopping_from_dict,
    three_input_rule,
    three_majority_law,
)
from .scenario import ResolvedScenario, ScenarioSpec, simulate, simulate_ensemble

__version__ = "1.7.0"

#: Exports reached lazily, keyed to the submodule that defines them, so a
#: plain ``import repro`` loads neither the serving stack (whose executor
#: pulls in ``multiprocessing``), the fault registry, nor the network
#: service: nothing :func:`simulate_ensemble` runs needs them.
_LAZY_EXPORTS = {
    "BatchReport": "serve",
    "ResultCache": "serve",
    "cache_key": "serve",
    "run_batch": "serve",
    "FaultPlan": "faults",
    "FaultRule": "faults",
    "BackgroundServer": "service",
    "ScenarioService": "service",
    "ServiceClient": "service",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "ADVERSARIES",
    "Adversary",
    "AnyOfStop",
    "BackgroundServer",
    "BalancingAdversary",
    "BatchReport",
    "BiasThresholdStop",
    "Configuration",
    "CountsDynamics",
    "DYNAMICS",
    "Dynamics",
    "EnsembleResult",
    "FaultPlan",
    "FaultRule",
    "HPlurality",
    "MedianDynamics",
    "MonochromaticStop",
    "PairwiseProtocol",
    "PairwiseVoter",
    "PopulationProcess",
    "PopulationResult",
    "PluralityFractionStop",
    "ProcessResult",
    "RandomAdversary",
    "ResolvedScenario",
    "ResultCache",
    "ReviveAdversary",
    "RoundBudgetStop",
    "STOPPING",
    "ScenarioService",
    "ScenarioSpec",
    "ServiceClient",
    "TOPOLOGIES",
    "StoppingRule",
    "TargetedAdversary",
    "ThreeInputRule",
    "ThreeMajority",
    "TwoChoices",
    "TwoSampleUniform",
    "UndecidedPopulation",
    "WORKLOADS",
    "UndecidedState",
    "Voter",
    "__version__",
    "all_position_rules",
    "cache_key",
    "first_rule",
    "majority_rule",
    "majority_uniform_rule",
    "make_rng",
    "max_rule",
    "median_rule",
    "min_rule",
    "run_batch",
    "run_ensemble",
    "run_process",
    "simulate",
    "simulate_ensemble",
    "skewed_rule",
    "sparse_ineligibility",
    "spawn_streams",
    "stopping_from_dict",
    "three_input_rule",
    "three_majority_law",
]

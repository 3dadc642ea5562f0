"""E5 — Theorem 3: 3-majority is the *only* 3-input plurality solver.

Paper claim
-----------
Within the class D3 of 3-input dynamics (no extra state), any
``(n/4, 1/4)``-solver must have the clear-majority property (Lemma 7) and
any ``(ηn, 1/4)``-solver must have the uniform property (Lemma 8).  Hence
every rule outside M3 fails: starting from an Ω(n)-biased configuration it
elects a non-plurality color with probability > 1/4.

Measurement
-----------
For a panel of rules spanning the classification —

* 3-majority, first and uniform tie-break (in M3: the control),
* the median rule (clear-majority, δ=(0,6,0): violates uniformity),
* skewed clear-majority rules with δ=(1,3,2) and δ=(0,4,2) (Lemma 8's cases),
* the first/voter rule (uniform but violates clear-majority — Lemma 7),
* min and max rules (violate both),

we run replica ensembles from the lemmas' own configurations (Lemma 8's
3-color ``(n/3+s, n/3, n/3-s)`` and Lemma 7's 2-color ``(5n/8, 3n/8)``)
and report δ-counters, property flags and plurality-win rates with Wilson
CIs.  The reproduced shape: win rate ≈ 1 for M3 members, well below 3/4
for every non-member — and for the deterministic-drift rules (median,
skewed) near 0.
"""

from __future__ import annotations

from ..analysis.fitting import wilson_interval
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=3_000, replicas=24, max_rounds=3_000),
    "small": dict(n=10_000, replicas=64, max_rounds=10_000),
    "paper": dict(n=100_000, replicas=200, max_rounds=50_000),
}

#: The rule panel: ``(registry name, params)`` per rule.
_PANEL = (
    ("majority-rule", {}),
    ("majority-uniform-rule", {}),
    ("median-rule", {}),
    ("skewed-rule", {"delta": [1, 3, 2]}),
    ("skewed-rule", {"delta": [0, 4, 2]}),
    ("first-rule", {}),
    ("min-rule", {}),
    ("max-rule", {}),
)


def _start(name: str, n: int) -> dict:
    """The spec fields of a rule's start: Lemma 7's 2-color start for the
    first rule (the clear-majority violator), Lemma 8's 3-color start
    otherwise.

    For the min rule Lemma 8's plurality (color 0 = lowest index) is also
    the rule's attractor, which would mask the failure; the mirrored start
    puts the plurality on the *highest* index (the color-symmetric case
    the lemma invokes).  Symmetrically for max.
    """
    if name == "first-rule":
        return dict(initial="two-color", initial_params={"bias": n // 4}, k=2)
    return dict(initial="lemma8", initial_params={"mirrored": name == "min-rule"}, k=3)


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    return [
        ScenarioSpec(
            dynamics=name,
            dynamics_params=params,
            **_start(name, cfg["n"]),
            n=cfg["n"],
            replicas=cfg["replicas"],
            max_rounds=cfg["max_rounds"],
            seed=spec_seed(seed, "E5", index),
        )
        for index, (name, params) in enumerate(_PANEL)
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    table = ResultTable(
        title="E5: only M3 members solve plurality consensus (Theorem 3)",
        columns=[
            "rule",
            "engine",
            "delta",
            "clear_majority",
            "uniform",
            "in_M3",
            "workload_bias",
            "replicas",
            "win_rate",
            "win_ci_low",
            "win_ci_high",
            "solver_threshold",
            "is_solver_here",
        ],
    )
    for spec, ens in zip(specs(scale, seed), results):
        scenario = spec.resolve()
        rule = scenario.dynamics
        wins = int(ens.plurality_wins.sum())
        lo, hi = wilson_interval(wins, ens.replicas)
        table.add_row(
            rule=rule.name,
            engine=rule.resolved_engine(),
            delta="/".join(f"{d:g}" for d in rule.delta_counters()),
            clear_majority=rule.has_clear_majority_property(),
            uniform=rule.has_uniform_property(),
            in_M3=rule.is_three_majority(),
            workload_bias=scenario.initial.bias,
            replicas=ens.replicas,
            win_rate=ens.plurality_win_rate,
            win_ci_low=lo,
            win_ci_high=hi,
            solver_threshold=0.75,
            is_solver_here=lo > 0.75,
        )
    table.add_note(
        "Theorem 3: rules outside M3 fail with probability > 1/4 from Ω(n)-biased starts; "
        "M3 members should show win_rate ≈ 1"
    )
    table.add_note(
        "all rules run on the exact counts-level engine (O(k) pattern-decomposed law); "
        "cross-validated against agent-level stepping in tests/test_counts_engines.py"
    )
    return table


SPEC = ExperimentSpec(
    id="E5",
    title="Uniqueness of 3-majority in D3 (Theorem 3 / Lemmas 7-8)",
    claim=(
        "Any 3-input dynamics lacking the clear-majority or the uniform property elects "
        "a non-plurality color with probability > 1/4 even from Ω(n)-biased configurations."
    ),
    specs=specs,
    table=table,
    tags=("negative-result", "classification"),
)

"""E11 — Parallel rounds vs the sequential population model.

Paper claim (related work, Sections 1-2)
----------------------------------------
The paper's model is the *discrete-time synchronous parallel* one; much of
the prior art ([2] Angluin et al., [21] Perron et al., [8], [3]) lives in
the *sequential population model* (one random pairwise interaction per
tick).  The paper emphasises that results do not transfer mechanically:
the undecided-state protocol's O(n log n)-tick analyses hold in
expectation, for k = Θ(1) and s = Θ(n) only, and sequential polling keeps
the voter martingale's constant failure probability.

Measurement
-----------
With tick counts normalised by n (≈ one parallel round of interactions):

* (a) sequential pairwise voter vs parallel voter on a biased binary
  configuration: both elect the minority at the martingale rate — the
  failure mode is model-independent;
* (b) sequential undecided-state (Angluin-style one-way protocol) vs the
  parallel undecided-state dynamics on binary Θ(n)-bias configurations:
  both converge reliably, with normalised times within a small constant
  factor — the O(n log n) tick bound matches O(log n) parallel rounds;
* (c) the same protocol at growing k with only √-order bias: the
  sequential version's reliability degrades (the paper's point that the
  k = Θ(1), s = Θ(n) restrictions are real).
"""

from __future__ import annotations

import numpy as np

from ..core.config import Configuration
from ..core.population import PairwiseVoter, PopulationProcess, UndecidedPopulation
from ..core.rng import derive_seed
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=200, reps=30, ks=[2, 6], bias_fraction=0.4),
    "small": dict(n=500, reps=60, ks=[2, 4, 8, 16], bias_fraction=0.4),
    "paper": dict(n=2_000, reps=200, ks=[2, 4, 8, 16, 32], bias_fraction=0.4),
}


def _start(n: int, k: int, bias_fraction: float) -> dict:
    """The spec fields of a start: Θ(n)-biased binary at k = 2 (panels a
    and b), a √-order bias at larger k (panel c)."""
    if k == 2:
        return dict(initial="two-color", initial_params={"bias": int(bias_fraction * n)}, n=n, k=k)
    bias = max(2, int(np.sqrt(n * k) / 2))
    return dict(initial="biased", initial_params={"bias": bias}, n=n, k=k)


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    """The parallel half: the voter, then undecided-state at each k."""
    cfg = _SCALE[scale]
    n, reps = cfg["n"], cfg["reps"]
    voter = ScenarioSpec(
        dynamics="voter",
        **_start(n, 2, cfg["bias_fraction"]),
        replicas=reps,
        max_rounds=10_000_000,
        seed=spec_seed(seed, "E11a-par"),
    )
    return [voter] + [
        ScenarioSpec(
            dynamics="undecided-state",
            **_start(n, k, cfg["bias_fraction"]),
            replicas=reps,
            max_rounds=100_000,
            seed=spec_seed(seed, "E11b-par", k),
        )
        for k in cfg["ks"]
    ]


def _sequential(
    protocol, config: Configuration, replicas: int, path: tuple, max_ticks: int | None = None
) -> tuple[float, float]:
    """Plurality-win rate and median tick/n time of ``replicas`` sequential runs."""
    process = PopulationProcess(protocol)
    wins, rounds = [], []
    for rep in range(replicas):
        rng = np.random.default_rng(derive_seed(*path, rep))
        res = process.run(config.counts, rng=rng, max_ticks=max_ticks)
        wins.append(res.plurality_won)
        rounds.append(res.parallel_rounds(config.n))
    return float(np.mean(wins)), float(np.median(rounds))


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    n, reps = cfg["n"], cfg["reps"]
    table = ResultTable(
        title="E11: parallel model vs sequential population model",
        columns=[
            "panel",
            "model",
            "protocol",
            "n",
            "k",
            "bias",
            "replicas",
            "plurality_win_rate",
            "median_parallel_rounds",
        ],
    )
    # Each parallel spec's result sits next to the sequential population
    # model on its start, run here: one Python iteration per interaction.
    for spec, ens in zip(specs(scale, seed), results):
        config, k = spec.resolve().initial, spec.k
        if spec.dynamics == "voter":
            panel, protocol = "a-voter", "pairwise-voter"
            sequential = _sequential(PairwiseVoter(), config, reps, (seed, "E11a"))
        else:
            panel = "b-undecided" if k == 2 else "c-undecided-k"
            protocol = "undecided-population"
            sequential = _sequential(
                UndecidedPopulation(), config, reps, (seed, "E11b", k), max_ticks=4_000 * n
            )
        row = dict(panel=panel, n=n, k=k, bias=config.bias, replicas=reps)
        table.add_row(
            **row,
            model="sequential",
            protocol=protocol,
            plurality_win_rate=sequential[0],
            median_parallel_rounds=sequential[1],
        )
        table.add_row(
            **row,
            model="parallel",
            protocol=spec.dynamics,
            plurality_win_rate=ens.plurality_win_rate,
            median_parallel_rounds=ens.rounds_summary()["median"],
        )
    table.add_note(
        "panel a: both models fail at the martingale rate ≈ c1/n; panel b: tick/n time "
        "within a constant of parallel rounds; panel c: reliability at √-bias degrades "
        "as k grows (the k=Θ(1), s=Θ(n) premises of the sequential analyses are real)"
    )
    return table


SPEC = ExperimentSpec(
    id="E11",
    title="Cross-model: synchronous parallel vs sequential population",
    claim=(
        "Sequential pairwise polling inherits the voter martingale's constant failure "
        "probability; the sequential undecided-state protocol matches its parallel "
        "counterpart at k=Θ(1), s=Θ(n) after tick/n normalisation, and degrades outside "
        "that regime."
    ),
    specs=specs,
    table=table,
    tags=("cross-model", "related-work"),
)

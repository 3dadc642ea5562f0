"""E4 — Theorem 2: the Ω(k log n) lower bound from near-balanced starts.

Paper claim
-----------
For ``k <= (n/log n)^{1/4}`` and an initial configuration with
``max_j c_j <= n/k + (n/k)^{1-ε}``, the 3-majority dynamics needs
``Ω(k log n)`` rounds w.h.p. to reach a monochromatic configuration.  The
proof's engine (Lemma 6): the positive imbalance of any color multiplies by
at most ``(1 + 3/k)`` per round, so even *doubling* the plurality from
``n/k`` to ``2n/k`` takes Ω(k log n) rounds.

Measurement
-----------
Sweep ``k`` within Theorem 2's range at fixed ``n``, starting from the
theorem's ε-imbalanced configuration.  For each point we measure (a) the
rounds until the top color first reaches ``2n/k`` (the doubling time the
proof actually bounds) and (b) the full consensus time, and we fit both
against ``k log n``.  The reproduced shape: both grow linearly in
``k log n`` (power-law exponent in k near 1, flat ratio columns).
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.bounds import theorem2_k_range, theorem2_lower_rounds
from ..analysis.fitting import power_law_fit
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, first_round_at_least, spec_seed
from .results import ResultTable
from .workloads import theorem2_start

_SCALE = {
    "smoke": dict(n=20_000, ks=[3, 5, 8], replicas=4, eps=0.25, max_rounds=20_000),
    "small": dict(n=100_000, ks=[3, 4, 6, 8, 12], replicas=8, eps=0.25, max_rounds=100_000),
    "paper": dict(n=1_000_000, ks=[4, 6, 8, 12, 16], replicas=16, eps=0.25, max_rounds=500_000),
}


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    return [
        ScenarioSpec(
            dynamics="3-majority",
            initial="theorem2",
            initial_params={"eps": cfg["eps"]},
            n=cfg["n"],
            k=k,
            replicas=cfg["replicas"],
            max_rounds=cfg["max_rounds"],
            record=["plurality-count"],
            seed=spec_seed(seed, "E4", k),
        )
        for k in cfg["ks"]
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    n = cfg["n"]
    table = ResultTable(
        title="E4: Ω(k log n) lower bound from ε-balanced starts (Theorem 2)",
        columns=[
            "n",
            "k",
            "in_theorem_range",
            "start_imbalance",
            "replicas",
            "median_doubling_rounds",
            "median_consensus_rounds",
            "k_logn",
            "doubling_ratio",
            "consensus_ratio",
            "lemma6_rounds",
            "lemma6_ratio",
        ],
    )
    k_max = theorem2_k_range(n)
    doubling_meds: list[float] = []
    consensus_meds: list[float] = []
    for k, ens in zip(cfg["ks"], results):
        config = theorem2_start(n, k, eps=cfg["eps"])
        # Doubling time straight off each replica's recorded plurality
        # count (the proof's quantity); a replica that never converged
        # reads the budget for both times.
        med_d = float(np.median(first_round_at_least(ens, "plurality-count", 2 * n / k)))
        med_c = float(np.median(ens.rounds))
        pred = theorem2_lower_rounds(n, k)
        # Lemma 6's engine: imbalance grows by at most (1 + 3/k) per round,
        # so doubling from the start imbalance to n/k needs at least
        # (k/3) * ln(target / start) rounds — the sharp per-point floor.
        imbalance0 = config.plurality_count - n // k
        lemma6 = (k / 3.0) * math.log((n / k) / max(imbalance0, 1))
        table.add_row(
            n=n,
            k=k,
            in_theorem_range=k <= k_max,
            start_imbalance=imbalance0,
            replicas=ens.replicas,
            median_doubling_rounds=med_d,
            median_consensus_rounds=med_c,
            k_logn=round(pred, 1),
            doubling_ratio=med_d / pred,
            consensus_ratio=med_c / pred,
            lemma6_rounds=round(lemma6, 1),
            lemma6_ratio=med_d / lemma6 if lemma6 > 0 else float("nan"),
        )
        doubling_meds.append(med_d)
        consensus_meds.append(med_c)

    if len(cfg["ks"]) >= 3:
        fit_d = power_law_fit(cfg["ks"], doubling_meds)
        fit_c = power_law_fit(cfg["ks"], consensus_meds)
        table.add_note(
            f"doubling time ~ k^{fit_d.exponent:.2f}, consensus time ~ k^{fit_c.exponent:.2f} "
            "(Theorem 2 predicts exponent >= 1 in its range)"
        )
    table.add_note(f"theorem range: k <= (n/log n)^(1/4) = {k_max:.1f}")
    table.add_note(
        "lower-bound check: lemma6_ratio (measured doubling / Lemma 6 floor) must stay >= 1"
    )
    return table


SPEC = ExperimentSpec(
    id="E4",
    title="Lower bound Ω(k log n) (Theorem 2 / Lemma 6)",
    claim=(
        "From a configuration with max_j c_j <= n/k + (n/k)^{1-ε}, 3-majority needs "
        "Ω(k log n) rounds to converge — and already Ω(k log n) rounds to double the "
        "plurality from n/k to 2n/k."
    ),
    specs=specs,
    table=table,
    tags=("lower-bound", "scaling"),
)

"""E6 — Theorem 4 / Lemma 9: larger samples buy at most an h² speed-up.

Paper claim
-----------
Under the h-plurality dynamics, from any configuration with
``max_j c_j <= 3n/(2k)`` the process needs ``Ω(k/h²)`` rounds w.h.p.
(for ``k/h = O(n^{1/4-ε})``).  Lemma 9's engine: a color below ``2n/k``
grows by at most a ``(1 + 2h²/k)`` factor per round.  Consequently
polylog-size samples — the only scalable regime — give at most a polylog
speed-up over 3-majority.

Measurement
-----------
Fix ``(n, k)`` with a balanced-start configuration in the theorem's range
and sweep ``h``.  For each ``h`` we measure the consensus time and the
time to grow the plurality from ``3n/(2k)`` to ``2n/k`` (what Lemma 9
bounds), and report ``rounds · h²/k`` — the theorem predicts this stays
bounded below by a constant (flat-ish column), i.e. time shrinks no faster
than ``1/h²``.  A power-law fit of rounds vs h checks the exponent ≈ -2.
"""

from __future__ import annotations

import numpy as np

from ..analysis.bounds import theorem4_lower_rounds
from ..analysis.fitting import power_law_fit
from ..core.majority import HPlurality
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, first_round_at_least, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=4_000, k=16, hs=[3, 5, 8], replicas=4, max_rounds=4_000),
    "small": dict(n=20_000, k=32, hs=[3, 4, 6, 8, 12, 16], replicas=8, max_rounds=20_000),
    "paper": dict(n=100_000, k=64, hs=[3, 4, 6, 8, 12, 16, 24, 32], replicas=16, max_rounds=100_000),
}


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    return [
        ScenarioSpec(
            dynamics="h-plurality",
            dynamics_params={"h": h},
            initial="theorem4",
            n=cfg["n"],
            k=cfg["k"],
            replicas=cfg["replicas"],
            max_rounds=cfg["max_rounds"],
            record=["plurality-count"],
            seed=spec_seed(seed, "E6", h),
        )
        for h in cfg["hs"]
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    n, k = cfg["n"], cfg["k"]
    table = ResultTable(
        title="E6: h-plurality speed-up is bounded by h² (Theorem 4)",
        columns=[
            "n",
            "k",
            "h",
            "engine",
            "replicas",
            "win_rate",
            "median_rounds",
            "median_growth_rounds",
            "k_over_h2",
            "rounds_x_h2_over_k",
            "speedup_vs_h3",
        ],
    )
    meds: list[float] = []
    for h, ens in zip(cfg["hs"], results):
        # A replica that never converged reads the budget.
        med = float(np.median(ens.rounds))
        med_growth = float(np.median(first_round_at_least(ens, "plurality-count", 2 * n / k)))
        meds.append(med)
        table.add_row(
            n=n,
            k=k,
            h=h,
            engine=HPlurality(h).resolved_engine(k),
            replicas=ens.replicas,
            win_rate=ens.plurality_win_rate,
            median_rounds=med,
            median_growth_rounds=med_growth,
            k_over_h2=round(theorem4_lower_rounds(k, h), 2),
            rounds_x_h2_over_k=med * h * h / k,
            speedup_vs_h3=meds[0] / med if med > 0 else float("inf"),
        )

    if len(meds) >= 3 and min(meds) > 0:
        fit = power_law_fit(cfg["hs"], meds)
        table.add_note(
            f"rounds ~ h^{fit.exponent:.2f} (theorem allows no decay faster than h^-2; "
            f"95% CI {fit.exponent_ci()[0]:.2f}..{fit.exponent_ci()[1]:.2f})"
        )
    table.add_note("rounds_x_h2_over_k should stay bounded away from 0 (Ω(k/h²) floor)")
    table.add_note(
        "engine column: 'counts' rows step through the exact h-plurality law "
        "(closed forms at h <= 3, the generating-function law above, "
        "O(k h³ log h) per round); 'agent' rows would pay O(n·h)"
    )
    return table


SPEC = ExperimentSpec(
    id="E6",
    title="h-plurality lower bound Ω(k/h²) (Theorem 4 / Lemma 9)",
    claim=(
        "From max_j c_j <= 3n/(2k), the h-plurality dynamics needs Ω(k/h²) rounds; "
        "polylogarithmic samples give at most polylogarithmic speed-up."
    ),
    specs=specs,
    table=table,
    tags=("lower-bound", "h-plurality"),
)

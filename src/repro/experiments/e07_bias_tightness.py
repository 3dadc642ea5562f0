"""E7 — Lemma 10: below ≈√(kn) bias, one round can *shrink* the bias.

Paper claim
-----------
For any ``s <= sqrt(kn)/6`` there are initial configurations
(``c = (x+s, x, ..., x)`` with ``x = (n-s)/k``) from which, for any fixed
rival color, ``P(C1 - Cj < s after one round) >= 1/(16e)``.  So the
monotone-bias argument behind the upper bounds genuinely needs bias of
order √(kn): the requirement is (almost) tight.

Measurement
-----------
At Lemma 10's configuration we run large one-round replica ensembles
(``max_rounds: 1`` specs, whose final counts are the one-round sample)
and measure the empirical probability that the bias towards a *fixed*
rival decreases, sweeping (a) ``k`` at the critical bias and (b) a
multiplier α on the critical bias.  The reproduced shape: at α <= 1 the
decrease probability is a clear constant above the 1/(16e) ≈ 0.023
floor; as α grows past ~2-4 it collapses towards 0, exhibiting the sharp
threshold the paper's open question discusses.
"""

from __future__ import annotations

from ..analysis.bounds import lemma10_critical_bias, lemma10_probability_floor
from ..analysis.fitting import wilson_interval
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=10_000, ks=[4, 16], alphas=[1.0, 4.0], replicas=2_000),
    "small": dict(n=100_000, ks=[4, 8, 16, 32], alphas=[0.5, 1.0, 2.0, 4.0], replicas=5_000),
    "paper": dict(
        n=1_000_000, ks=[4, 8, 16, 32, 64], alphas=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0], replicas=20_000
    ),
}


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    """One round per replica at Lemma 10's configuration, with ``alpha``
    times the critical bias, per ``(k, alpha)``."""
    cfg = _SCALE[scale]
    n = cfg["n"]
    return [
        ScenarioSpec(
            dynamics="3-majority",
            initial="lemma10",
            initial_params={"s": max(1, int(alpha * lemma10_critical_bias(n, k)))},
            n=n,
            k=k,
            replicas=cfg["replicas"],
            max_rounds=1,
            seed=spec_seed(seed, "E7", k, int(alpha * 100)),
        )
        for k in cfg["ks"]
        for alpha in cfg["alphas"]
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    floor = lemma10_probability_floor()
    table = ResultTable(
        title="E7: one-round bias decrease near s = √(kn)/6 (Lemma 10)",
        columns=[
            "n",
            "k",
            "alpha",
            "bias",
            "critical_bias",
            "replicas",
            "p_decrease",
            "ci_low",
            "ci_high",
            "floor_1_16e",
            "above_floor",
        ],
    )
    cfg = _SCALE[scale]
    alphas = [alpha for _ in cfg["ks"] for alpha in cfg["alphas"]]
    for alpha, spec, ens in zip(alphas, specs(scale, seed), results):
        n, k, s = spec.n, spec.k, spec.initial_params["s"]
        nxt = ens.final_counts
        # Lemma 10 fixes one rival color j != 1; every rival is
        # exchangeable in this configuration, so use color 1.
        decreases = (nxt[:, 0] - nxt[:, 1]) < s
        hits = int(decreases.sum())
        p = hits / ens.replicas
        lo, hi = wilson_interval(hits, ens.replicas)
        table.add_row(
            n=n,
            k=k,
            alpha=alpha,
            bias=s,
            critical_bias=round(lemma10_critical_bias(n, k), 1),
            replicas=ens.replicas,
            p_decrease=p,
            ci_low=lo,
            ci_high=hi,
            floor_1_16e=round(floor, 4),
            above_floor=lo >= floor if alpha <= 1.0 else p >= 0.0,
        )
    table.add_note(
        "Lemma 10 guarantees p_decrease >= 1/(16e) ≈ 0.023 at alpha <= 1; the collapse at "
        "large alpha shows why the upper bounds demand s = Ω(√(λ n log n))"
    )
    return table


SPEC = ExperimentSpec(
    id="E7",
    title="Near-tightness of the bias requirement (Lemma 10)",
    claim=(
        "At s <= sqrt(kn)/6 there are configurations where the bias towards a fixed rival "
        "decreases in one round with probability >= 1/(16e)."
    ),
    specs=specs,
    table=table,
    tags=("tightness", "bias"),
)

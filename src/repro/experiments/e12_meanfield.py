"""E12 — Where mean-field (ODE) reasoning breaks: the paper's methodology point.

Paper claim (related work + Lemma 10)
-------------------------------------
The paper dismisses real-valued differential-equation analyses ([21, 8, 3])
for its model: they "do not work for the discrete-time parallel model",
because w.h.p. guarantees live or die on fluctuations the ODE throws away.
The regime that makes this concrete is Lemma 10's: at bias s = O(√(kn))
the *deterministic* mean field always elects the plurality (any positive
bias grows monotonically under Lemma 2's drift), while the *stochastic*
process fails with constant probability.

Measurement
-----------
Sweep the initial bias s as a multiple of √n on Lemma 10-style
configurations.  For each s:

* integrate the discrete mean field — it predicts plurality victory
  whenever s > 0 (reported as the deterministic verdict and its
  time-to-90%);
* measure the stochastic plurality-win rate over a replica ensemble.

The reproduced shape: the stochastic win rate climbs from ~1/k (no
information) to 1.0 only once s passes the √(n·polylog) scale, while the
mean field says "win" everywhere — quantifying exactly how misleading the
ODE is below the fluctuation scale.  As a control, at large bias the
mean-field time-to-90% matches the measured median rounds.
"""

from __future__ import annotations

import math

from ..analysis.meanfield import discrete_mean_field
from ..core.majority import ThreeMajority
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=10_000, k=8, multipliers=[0.0, 1.0, 8.0], reps=64),
    "small": dict(n=100_000, k=8, multipliers=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0], reps=128),
    "paper": dict(
        n=1_000_000, k=16, multipliers=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0], reps=512
    ),
}


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    """The stochastic half: one ensemble per bias multiplier."""
    cfg = _SCALE[scale]
    n = cfg["n"]
    return [
        ScenarioSpec(
            dynamics="3-majority",
            initial="biased",
            initial_params={"bias": int(mult * math.sqrt(n))},
            n=n,
            k=cfg["k"],
            replicas=cfg["reps"],
            max_rounds=200_000,
            seed=spec_seed(seed, "E12", int(mult * 10)),
        )
        for mult in cfg["multipliers"]
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    n, k = cfg["n"], cfg["k"]
    table = ResultTable(
        title="E12: stochastic process vs mean-field ODE near the critical bias",
        columns=[
            "n",
            "k",
            "bias_over_sqrt_n",
            "bias",
            "replicas",
            "stochastic_win_rate",
            "meanfield_verdict",
            "meanfield_rounds_to_90",
            "measured_median_rounds",
            "ode_is_faithful",
        ],
    )
    dyn = ThreeMajority()
    for mult, spec, ens in zip(cfg["multipliers"], specs(scale, seed), results):
        config = spec.resolve().initial
        # Deterministic mean field from the same fractions.
        mf = discrete_mean_field(dyn, config.fractions(), rounds=max(200, 30 * k))
        mf_winner = mf.winner(atol=1e-3)
        mf_says_win = mf_winner == config.plurality_color if config.bias > 0 else False
        mf_t90 = mf.rounds_to_fraction(0.9)
        # Stochastic truth.
        win = ens.plurality_win_rate
        measured = ens.rounds_summary()["median"]
        faithful = (
            mf_says_win
            and win > 0.95
            and mf_t90 is not None
            and measured == measured  # not NaN
            and abs(measured - mf_t90) <= max(5.0, 0.5 * mf_t90)
        )
        table.add_row(
            n=n,
            k=k,
            bias_over_sqrt_n=mult,
            bias=config.bias,
            replicas=ens.replicas,
            stochastic_win_rate=win,
            meanfield_verdict="plurality wins" if mf_says_win else "tie/none",
            meanfield_rounds_to_90=mf_t90 if mf_t90 is not None else float("nan"),
            measured_median_rounds=measured,
            ode_is_faithful=faithful,
        )
    table.add_note(
        "the ODE declares victory for ANY positive bias; the stochastic win rate only "
        "reaches 1.0 well past the √n fluctuation scale (Lemma 10's regime) — the paper's "
        "reason to reject differential-equation arguments for w.h.p. bounds"
    )
    return table


SPEC = ExperimentSpec(
    id="E12",
    title="Mean-field breakdown below the fluctuation scale (methodology of Lemma 10)",
    claim=(
        "Deterministic mean-field dynamics predict plurality victory for any positive "
        "bias, but the stochastic parallel process fails with constant probability until "
        "the bias clears the √(kn)-order fluctuation scale."
    ),
    specs=specs,
    table=table,
    tags=("methodology", "mean-field"),
)

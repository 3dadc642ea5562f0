"""E8 — Corollary 4: self-stabilisation against F-bounded adversaries.

Paper claim
-----------
With ``c1 >= n/λ`` and bias ``s >= c sqrt(2 λ n log n)``, the 3-majority
dynamics achieves ``O(s/λ)``-plurality consensus in ``O(λ log n)`` rounds
against *any* F-bounded dynamic adversary with ``F = o(s/λ)`` — i.e. all
but ``O(s/λ)`` agents adopt the plurality and stay there for poly(n)
rounds.  With ``F >= M`` no M-plurality consensus is possible.

Measurement
-----------
Against the worst-case :class:`TargetedAdversary` (moves F plurality
supporters to the runner-up each round — exactly the strategy the
corollary's proof has to beat) we sweep ``F`` as a multiple of ``s/λ``,
one ``targeted``-adversary spec per point recording ``plurality-count``
every round.  Each replica runs for a ``C·λ log n`` budget plus a
holding window (the spec's ``max_rounds``); we record whether
the initial plurality survived as the top color, the minority mass at the
end of the budget (the achieved M), and whether the almost-stable phase
held through the window.  The reproduced shape: for ``F`` well below
``s/λ`` the process stabilises with minority mass O(F); as ``F``
approaches and passes ``s/λ`` stabilisation degrades and fails.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.bounds import lambda_for
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable
from .workloads import theorem1_bias

_SCALE = {
    "smoke": dict(n=10_000, k=8, fractions=[0.0, 0.2, 1.0], replicas=4, budget_mult=4.0, hold=30),
    "small": dict(
        n=100_000,
        k=8,
        fractions=[0.0, 0.05, 0.2, 0.5, 1.0, 2.0],
        replicas=8,
        budget_mult=4.0,
        hold=100,
    ),
    "paper": dict(
        n=1_000_000,
        k=16,
        fractions=[0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 4.0],
        replicas=16,
        budget_mult=4.0,
        hold=300,
    ),
}


def _setup(scale: str) -> tuple[int, int, float, int]:
    """``(n, k, s/λ, budget rounds)`` at ``scale``."""
    cfg = _SCALE[scale]
    n, k = cfg["n"], cfg["k"]
    lam = lambda_for(n, k)
    return n, k, theorem1_bias(n, k) / lam, int(cfg["budget_mult"] * lam * math.log(n))


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    n, k, s_over_lambda, budget_rounds = _setup(scale)
    out = []
    for frac in cfg["fractions"]:
        F = int(round(frac * s_over_lambda))
        out.append(
            ScenarioSpec(
                dynamics="3-majority",
                initial="paper-biased",
                n=n,
                k=k,
                adversary="targeted" if F > 0 else None,
                adversary_params={"budget": F} if F > 0 else {},
                replicas=cfg["replicas"],
                max_rounds=budget_rounds + cfg["hold"],
                record=["plurality-count"],
                seed=spec_seed(seed, "E8", F),
            )
        )
    return out


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    n, k, s_over_lambda, budget_rounds = _setup(scale)
    table = ResultTable(
        title="E8: 3-majority vs F-bounded dynamic adversary (Corollary 4)",
        columns=[
            "n",
            "k",
            "F",
            "F_over_s_lambda",
            "replicas",
            "plurality_survived_rate",
            "median_final_minority",
            "minority_over_s_lambda",
            "held_window_rate",
            "budget_rounds",
        ],
    )
    for frac, spec, ens in zip(cfg["fractions"], specs(scale, seed), results):
        F = spec.adversary_params.get("budget", 0)
        minorities = n - ens.final_counts.max(axis=1)
        survived = np.argmax(ens.final_counts, axis=1) == ens.plurality_color
        # Held: every round of the window after the budget keeps minority
        # mass <= max(4F, s/λ).  A replica absorbed before the window's end
        # (only without an adversary) stays absorbed: minority 0.
        window = ens.trace["plurality-count"][:, budget_rounds:]
        recorded = ens.trace.valid_mask()[:, budget_rounds:]
        threshold = max(4 * F, s_over_lambda)
        held = np.all((n - window <= threshold) | ~recorded, axis=1)
        table.add_row(
            n=n,
            k=k,
            F=F,
            F_over_s_lambda=frac,
            replicas=ens.replicas,
            plurality_survived_rate=float(survived.mean()),
            median_final_minority=float(np.median(minorities)),
            minority_over_s_lambda=float(np.median(minorities)) / s_over_lambda,
            held_window_rate=float(held.mean()),
            budget_rounds=budget_rounds,
        )
    lam = lambda_for(n, k)
    table.add_note(
        f"s = {theorem1_bias(n, k)}, λ = {lam:.1f}, s/λ = {s_over_lambda:.0f}; Corollary 4 "
        "needs F = o(s/λ) and promises minority mass O(s/λ) held for poly(n) rounds"
    )
    return table


SPEC = ExperimentSpec(
    id="E8",
    title="Self-stabilising plurality consensus under adversarial corruption (Corollary 4)",
    claim=(
        "Against any F-bounded dynamic adversary with F = o(s/λ), 3-majority reaches and "
        "holds O(s/λ)-plurality consensus within O(λ log n) rounds."
    ),
    specs=specs,
    table=table,
    tags=("adversary", "self-stabilisation"),
)

"""E9 — The related-work landscape: voter, two-choices, undecided-state.

Paper claims (Sections 1-2 and related work)
--------------------------------------------
1. Polling (1-majority / voter) — and two samples with uniform tie-break —
   converge to a *minority* color with constant probability even for k=2
   and bias Θ(n) [Hassin-Peleg]: the consensus color is j with probability
   exactly ``c_j/n``.
2. The two-choices rule (adopt iff both samples agree) slows down as k
   grows from balanced-ish starts: per-round progress is Θ(1/k).
3. The undecided-state dynamics converges in time ~ monochromatic distance
   ``md(c)`` [SODA'15]: on configurations with almost all mass on O(1)
   colors plus a long thin tail it is dramatically faster than 3-majority
   (whose clock is λ = n/c1)... but for k = ω(√n) it can *lose the
   plurality* (the paper's Section 1 caveat), while 3-majority does not.

Measurement
-----------
(a) voter minority-win rate vs the exact ``c2/n`` martingale value;
(b) two-choices consensus time vs k at matched relative bias;
(c) undecided-state vs 3-majority round counts on SODA'15 gap
    configurations of growing n (two heavy colors ~ n^{2/3}, thin tail);
(d) plurality-win rates of both dynamics at k ≈ 2√n (the undecided-state
    danger zone).
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.fitting import wilson_interval
from ..core.config import Configuration
from ..core.majority import ThreeMajority
from ..core.process import run_ensemble
from ..core.rng import derive_seed
from ..core.undecided import UndecidedState
from ..core.voter import TwoChoices, Voter
from .harness import ExperimentSpec
from .results import ResultTable

_SCALE = {
    "smoke": dict(
        voter_n=300, voter_reps=200, tc_ks=[2, 8], tc_n=2_000, tc_reps=8,
        gap_ns=[3_000], gap_reps=6, danger_n=900, danger_reps=500, max_rounds=400_000,
    ),
    "small": dict(
        voter_n=500, voter_reps=500, tc_ks=[2, 4, 8, 16], tc_n=10_000, tc_reps=16,
        gap_ns=[3_000, 10_000, 30_000], gap_reps=10, danger_n=2_500, danger_reps=2_000,
        max_rounds=2_000_000,
    ),
    "paper": dict(
        voter_n=1_000, voter_reps=2_000, tc_ks=[2, 4, 8, 16, 32], tc_n=100_000, tc_reps=32,
        gap_ns=[10_000, 30_000, 100_000, 300_000], gap_reps=16, danger_n=10_000,
        danger_reps=10_000, max_rounds=5_000_000,
    ),
}


def gap_config(n: int) -> Configuration:
    """Two heavy colors ≈ n^{2/3} (plurality slightly ahead), unit tail.

    ``md(c)`` stays ≈ 2 + o(1) while 3-majority's clock λ = n/c1 ≈ n^{1/3}:
    the SODA'15 regime where undecided-state wins by an unbounded factor.
    """
    heavy = int(round(n ** (2 / 3)))
    gap = max(2, int(2 * math.sqrt(heavy)))
    tail_n = n - 2 * heavy - gap  # one agent per tail color
    counts = np.concatenate(
        [[heavy + gap, heavy], np.ones(tail_n, dtype=np.int64)]
    )
    return Configuration(counts)


def danger_config(n: int) -> Configuration:
    """k ≈ 2√n near-balanced with a √-order bias: undecided-state risk zone."""
    k = max(4, int(2 * math.sqrt(n)))
    s = max(2, int(math.sqrt(n) / 2))
    return Configuration.biased(n, k, s)


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E9: dynamics landscape — voter / two-choices / undecided-state",
        columns=["panel", "params", "dynamics", "replicas", "metric", "value", "reference"],
    )

    # (a) voter martingale: minority wins with prob exactly c2/n.
    n = cfg["voter_n"]
    config = Configuration.two_color(n, bias=max(2, n // 5))
    ens = run_ensemble(
        Voter(),
        config,
        cfg["voter_reps"],
        max_rounds=cfg["max_rounds"],
        rng=np.random.default_rng(derive_seed(seed, "E9a")),
    )
    minority_rate = float((ens.winners == 1).mean())
    lo, hi = wilson_interval(int((ens.winners == 1).sum()), ens.replicas)
    table.add_row(
        panel="a-voter",
        params=f"n={n}, c=({config[0]},{config[1]})",
        dynamics="voter",
        replicas=ens.replicas,
        metric="minority_win_rate",
        value=minority_rate,
        reference=f"c2/n = {config[1] / n:.3f} (CI {lo:.3f}..{hi:.3f})",
    )

    # (b) two-choices stall in k.
    for k in cfg["tc_ks"]:
        n = cfg["tc_n"]
        config = Configuration.biased(n, k, max(4, int(3 * math.sqrt(n * math.log(n)))))
        ens = run_ensemble(
            TwoChoices(),
            config,
            cfg["tc_reps"],
            max_rounds=cfg["max_rounds"],
            rng=np.random.default_rng(derive_seed(seed, "E9b", k)),
        )
        table.add_row(
            panel="b-two-choices",
            params=f"n={n}, k={k}",
            dynamics="two-choices",
            replicas=ens.replicas,
            metric="median_rounds",
            value=ens.rounds_summary()["median"],
            reference="grows with k (Θ(1/k) per-round agreement mass)",
        )

    # (c) the SODA'15 exponential gap.
    for n in cfg["gap_ns"]:
        config = gap_config(n)
        md = config.monochromatic_distance()
        for name, dyn in (("3-majority", ThreeMajority()), ("undecided", UndecidedState())):
            ens = run_ensemble(
                dyn,
                config,
                cfg["gap_reps"],
                max_rounds=cfg["max_rounds"],
                rng=np.random.default_rng(derive_seed(seed, "E9c", n, name)),
            )
            table.add_row(
                panel="c-gap",
                params=f"n={n}, md={md:.2f}, n^1/3={n ** (1 / 3):.0f}",
                dynamics=name,
                replicas=ens.replicas,
                metric="median_rounds",
                value=ens.rounds_summary()["median"],
                reference="undecided ~ md(c) log n;  3-majority ~ (n/c1) log n",
            )

    # (d) the undecided-state danger zone k = ω(√n): SODA'15 §3 exhibits
    # configurations where the plurality color *disappears in one round*
    # with constant probability — 3-majority never does this.
    n = cfg["danger_n"]
    config = danger_config(n)
    for name, dyn in (("3-majority", ThreeMajority()), ("undecided", UndecidedState())):
        rng = np.random.default_rng(derive_seed(seed, "E9d", name))
        reps = cfg["danger_reps"]
        if dyn.uses_extra_state:
            batch = np.tile(UndecidedState.extend_counts(config.counts), (reps, 1))
            nxt = dyn.step_many(batch, rng)[:, : config.k]
        else:
            batch = np.tile(config.counts, (reps, 1))
            nxt = dyn.step_many(batch, rng)
        died = float((nxt[:, config.plurality_color] == 0).mean())
        table.add_row(
            panel="d-danger",
            params=f"n={n}, k={config.k}, s={config.bias}",
            dynamics=name,
            replicas=reps,
            metric="plurality_died_round1",
            value=died,
            reference="undecided-state kills the plurality in one round w/ const prob at k=ω(√n)",
        )
    return table


SPEC = ExperimentSpec(
    id="E9",
    title="Dynamics landscape: voter, two-choices, undecided-state",
    claim=(
        "Voter elects color j with probability c_j/n (minority wins at constant rate); "
        "two-choices stalls as k grows; the undecided-state dynamics beats 3-majority on "
        "low-md(c) configurations but can lose the plurality at k = ω(√n)."
    ),
    run=run,
    tags=("baselines", "related-work"),
)

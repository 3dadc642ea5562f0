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

from ..analysis.fitting import wilson_interval
from ..core.config import Configuration
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable
from .workloads import soda15_gap

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


def _start(workload: str, n: int, k: int, **params) -> dict:
    """The spec fields of a start: ``workload`` with ``params`` at ``(n, k)``."""
    return dict(initial=workload, initial_params=params, n=n, k=k)


def _gap_start(n: int) -> dict:
    """The SODA'15 gap start: two heavy colors ≈ n^{2/3}, the plurality
    ahead by ≈ 2n^{1/3}, and a unit tail.

    ``md(c)`` stays ≈ 2 + o(1) while 3-majority's clock λ = n/c1 ≈ n^{1/3}:
    the regime where undecided-state wins by an unbounded factor.
    """
    heavy = int(round(n ** (2 / 3)))
    gap = max(2, int(2 * math.sqrt(heavy)))
    tail = n - 2 * heavy - gap  # one agent per tail color
    return _start("soda15-gap", n, 2 + tail, heavy_fraction=(2 * heavy + gap) / n, lead=gap)


def gap_config(n: int) -> Configuration:
    """Two heavy colors ≈ n^{2/3} (plurality slightly ahead), unit tail."""
    start = _gap_start(n)
    return soda15_gap(n, start["k"], **start["initial_params"])


def _danger_start(n: int) -> dict:
    """A k ≈ 2√n near-balanced start with a √-order bias."""
    return _start("biased", n, max(4, int(2 * math.sqrt(n))), bias=max(2, int(math.sqrt(n) / 2)))


def danger_config(n: int) -> Configuration:
    """k ≈ 2√n near-balanced with a √-order bias: undecided-state risk zone."""
    start = _danger_start(n)
    return Configuration.biased(n, start["k"], start["initial_params"]["bias"])


def _runs(scale: str, seed: int) -> list[tuple[str, str, ScenarioSpec]]:
    """``(panel, dynamics, spec)`` per run, panel by panel."""
    cfg = _SCALE[scale]
    pair = ("3-majority", "undecided-state")
    budget, voter_n, tc_n = cfg["max_rounds"], cfg["voter_n"], cfg["tc_n"]
    tc_bias = max(4, int(3 * math.sqrt(tc_n * math.log(tc_n))))
    # (panel, dynamics, start, replicas, max_rounds, record) per run:
    # (a) the voter martingale: the minority wins with probability c2/n;
    # (b) two-choices stalls in k; (c) the SODA'15 exponential gap;
    # (d) the undecided-state danger zone k = ω(√n), one recorded round.
    runs = [
        ("a-voter", "voter", _start("two-color", voter_n, 2, bias=max(2, voter_n // 5)),
         cfg["voter_reps"], budget, None),
    ]
    runs += [
        ("b-two-choices", "two-choices", _start("biased", tc_n, k, bias=tc_bias),
         cfg["tc_reps"], budget, None)
        for k in cfg["tc_ks"]
    ]
    runs += [
        ("c-gap", dynamics, _gap_start(n), cfg["gap_reps"], budget, None)
        for n in cfg["gap_ns"]
        for dynamics in pair
    ]
    runs += [
        ("d-danger", dynamics, _danger_start(cfg["danger_n"]), cfg["danger_reps"], 1, ["counts"])
        for dynamics in pair
    ]
    return [
        (
            panel,
            dynamics,
            ScenarioSpec(
                dynamics=dynamics,
                **start,
                replicas=replicas,
                max_rounds=max_rounds,
                record=record,
                seed=spec_seed(seed, "E9", index),
            ),
        )
        for index, (panel, dynamics, start, replicas, max_rounds, record) in enumerate(runs)
    ]


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    return [spec for *_, spec in _runs(scale, seed)]


#: Table label per dynamics registry name.
_LABEL = {"undecided-state": "undecided"}


def table(scale: str, seed: int, results) -> ResultTable:
    table = ResultTable(
        title="E9: dynamics landscape — voter / two-choices / undecided-state",
        columns=["panel", "params", "dynamics", "replicas", "metric", "value", "reference"],
    )
    for (panel, dynamics, spec), ens in zip(_runs(scale, seed), results):
        n, config = spec.n, spec.resolve().initial
        row = dict(panel=panel, dynamics=_LABEL.get(dynamics, dynamics), replicas=ens.replicas)
        if panel == "a-voter":
            minority = ens.winners == 1
            lo, hi = wilson_interval(int(minority.sum()), ens.replicas)
            table.add_row(
                **row,
                params=f"n={n}, c=({config[0]},{config[1]})",
                metric="minority_win_rate",
                value=float(minority.mean()),
                reference=f"c2/n = {config[1] / n:.3f} (CI {lo:.3f}..{hi:.3f})",
            )
        elif panel == "b-two-choices":
            table.add_row(
                **row,
                params=f"n={n}, k={spec.k}",
                metric="median_rounds",
                value=ens.rounds_summary()["median"],
                reference="grows with k (Θ(1/k) per-round agreement mass)",
            )
        elif panel == "c-gap":
            table.add_row(
                **row,
                params=(
                    f"n={n}, md={config.monochromatic_distance():.2f}, "
                    f"n^1/3={n ** (1 / 3):.0f}"
                ),
                metric="median_rounds",
                value=ens.rounds_summary()["median"],
                reference="undecided ~ md(c) log n;  3-majority ~ (n/c1) log n",
            )
        else:
            # SODA'15 §3 exhibits configurations where the plurality color
            # *disappears in one round* with constant probability —
            # 3-majority never does this.
            died = ens.trace["counts"][:, 1, config.plurality_color] == 0
            table.add_row(
                **row,
                params=f"n={n}, k={spec.k}, s={config.bias}",
                metric="plurality_died_round1",
                value=float(died.mean()),
                reference=(
                    "undecided-state kills the plurality in one round w/ const prob at k=ω(√n)"
                ),
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
    specs=specs,
    table=table,
    tags=("baselines", "related-work"),
)

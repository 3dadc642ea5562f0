"""E13 — Consensus time across graph topologies (extension).

Beyond-the-paper claim
----------------------
The paper analyses 3-majority on the complete graph, where anonymous
counts are a Markov chain.  On general graphs the *placement* of colors
matters: expanders behave like the clique up to constants, while poorly
connected graphs (tori with large diameter, barbells with an O(1)-width
bottleneck) slow or stall consensus — the standard picture from the
voter/majority literature (cf. Cooper et al., PAPERS.md).

Measurement
-----------
3-majority from a *weakly* biased start (additive bias of a few agents,
well under the Theorem 1 threshold — enough to define a plurality winner
without forcing every region of the graph towards it) on a family of
topologies at equal (n, k, bias), one spec per topology (the spec
``repro simulate --topology`` runs):

* ``clique`` — the paper's model (graph engine, not the counts engine,
  so any gap is attributable to topology alone);
* ``random-regular`` — constant-degree expander; expected near-clique
  rounds despite degree 8 vs degree n;
* ``torus`` — Θ(√n) diameter; slower, but consensus still reliable;
* ``erdos-renyi`` — G(n, p) at p = 2 ln(n)/n, near the connectivity
  threshold; mostly expander-like with a thin tail of slow replicas;
* ``barbell`` — two cliques joined at a single edge; the bottleneck
  keeps disagreeing halves stable, so many replicas exhaust the round
  budget (reported via ``convergence_rate``, not dropped).
"""

from __future__ import annotations

from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(n=100, k=3, replicas=6, max_rounds=2_000, bias=4),
    "small": dict(n=400, k=4, replicas=16, max_rounds=8_000, bias=4),
    "paper": dict(n=2_500, k=5, replicas=48, max_rounds=40_000, bias=8),
}

#: (label, registry name, params) — params must keep every generator valid
#: at each _SCALE n (torus needs a divisor pair; barbell an even body).
_TOPOLOGIES = (
    ("clique", "clique", {}),
    ("random-regular", "random-regular", {"d": 8, "seed": 0}),
    ("torus", "torus", {}),
    ("erdos-renyi", "erdos-renyi", {"seed": 0}),
    ("barbell", "barbell", {}),
)


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    return [
        ScenarioSpec(
            dynamics="3-majority",
            initial="biased",
            initial_params={"bias": cfg["bias"]},
            n=cfg["n"],
            k=cfg["k"],
            topology=name,
            topology_params=dict(params),
            replicas=cfg["replicas"],
            max_rounds=cfg["max_rounds"],
            seed=spec_seed(seed, "E13", label),
        )
        for label, name, params in _TOPOLOGIES
    ]


def table(scale: str, seed: int, results) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E13: 3-majority consensus time vs topology",
        columns=[
            "topology",
            "n",
            "k",
            "replicas",
            "convergence_rate",
            "plurality_win_rate",
            "median_rounds",
            "p90_rounds",
        ],
    )
    for (label, _, _), ens in zip(_TOPOLOGIES, results):
        summary = ens.rounds_summary()
        table.add_row(
            topology=label,
            n=cfg["n"],
            k=cfg["k"],
            replicas=ens.replicas,
            convergence_rate=ens.convergence_rate,
            plurality_win_rate=ens.plurality_win_rate,
            median_rounds=summary["median"],
            p90_rounds=summary["p90"],
        )
    table.add_note(
        "rounds are conditional on convergence (non-converged replicas exhaust the "
        f"max_rounds={cfg['max_rounds']} budget and only lower convergence_rate); "
        "expander ≈ clique up to a constant, torus pays its diameter, barbell's "
        "bottleneck shows up as convergence_rate well below 1"
    )
    return table


SPEC = ExperimentSpec(
    id="E13",
    title="Topology family: consensus time beyond the clique",
    claim=(
        "3-majority run agent-level through the spec facade from a weakly biased "
        "start: random-regular expanders track the clique's consensus time up to a "
        "constant, the torus pays a diameter-driven slowdown, G(n, 2 ln n / n) is "
        "expander-like, and the barbell's bottleneck stalls most replicas within "
        "the round budget (halves lock onto different colors)."
    ),
    specs=specs,
    table=table,
    tags=("extension", "topology", "graphs"),
)

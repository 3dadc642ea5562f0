"""E10 — The three-phase structure of the Theorem 1 proof (Lemmas 3-5).

Paper claim
-----------
The upper-bound proof decomposes a 3-majority run into three phases:

* **Lemma 3** (``n/λ <= c1 <= 2n/3``): the bias multiplies by at least
  ``1 + c1/(4n)`` per round w.h.p.;
* **Lemma 4** (``2n/3 <= c1 <= n - ω(log n)``): the total minority mass
  shrinks by a factor <= 8/9 per round w.h.p.;
* **Lemma 5** (``c1 >= n - polylog(n)``): all minorities vanish in one
  round with probability ``1 - O(polylog(n)/n)``.

Measurement
-----------
Record full trajectories at several (n, k) via the declarative
``record=["counts"]`` metric trace, segment them with
:func:`repro.analysis.distance.phase_segments`, and report per phase: the
rounds spent, the observed per-round bias growth factor vs Lemma 3's
``1 + c1/(4n)``, the observed minority decay ratio vs 8/9, and the length
of the last-step phase (should be O(1) rounds).
"""

from __future__ import annotations

import numpy as np

from ..analysis.distance import (
    PHASE_LAST_STEP,
    PHASE_MAJORITY,
    PHASE_PLURALITY,
    phase_segments,
)
from ..core.majority import ThreeMajority
from ..core.metrics import BiasMetric
from ..core.process import run_process
from ..core.rng import derive_seed
from .harness import ExperimentSpec
from .results import ResultTable
from .workloads import paper_biased

_SCALE = {
    "smoke": dict(points=[(20_000, 8)], replicas=3, max_rounds=5_000),
    "small": dict(points=[(100_000, 8), (100_000, 32)], replicas=8, max_rounds=20_000),
    "paper": dict(
        points=[(1_000_000, 8), (1_000_000, 32), (1_000_000, 128)], replicas=16, max_rounds=100_000
    ),
}


def _phase_stats(trajectory: np.ndarray) -> dict[str, dict[str, float]]:
    """Per-phase rounds, bias growth factors and minority decay ratios."""
    segments = phase_segments(trajectory)
    n = float(trajectory[0].sum())
    biases = BiasMetric().compute_many(trajectory, n).astype(float)
    minority = n - trajectory.max(axis=1).astype(float)
    stats: dict[str, dict[str, float]] = {}
    for seg in segments:
        if seg.phase not in (PHASE_PLURALITY, PHASE_MAJORITY, PHASE_LAST_STEP):
            continue
        entry = stats.setdefault(
            seg.phase, {"rounds": 0.0, "growth": [], "decay": [], "lemma3_pred": []}  # type: ignore[dict-item]
        )
        entry["rounds"] += seg.length if seg.phase != PHASE_LAST_STEP else seg.length
        for t in range(seg.start_round, min(seg.end_round, trajectory.shape[0] - 2) + 1):
            if seg.phase == PHASE_PLURALITY and biases[t] > 0:
                entry["growth"].append(biases[t + 1] / biases[t])  # type: ignore[union-attr]
                c1 = float(trajectory[t].max())
                entry["lemma3_pred"].append(1.0 + c1 / (4.0 * n))  # type: ignore[union-attr]
            if seg.phase == PHASE_MAJORITY and minority[t] > 0:
                entry["decay"].append(minority[t + 1] / minority[t])  # type: ignore[union-attr]
    return stats


def run(scale: str, seed: int) -> ResultTable:
    cfg = _SCALE[scale]
    table = ResultTable(
        title="E10: three-phase decomposition of 3-majority runs (Lemmas 3-5)",
        columns=[
            "n",
            "k",
            "phase",
            "mean_rounds",
            "mean_growth_factor",
            "lemma3_prediction",
            "mean_decay_ratio",
            "lemma4_bound",
        ],
    )
    dyn = ThreeMajority()
    for n, k in cfg["points"]:
        config = paper_biased(n, k)
        agg: dict[str, dict[str, list[float]]] = {}
        for rep in range(cfg["replicas"]):
            rng = np.random.default_rng(derive_seed(seed, "E10", n, k, rep))
            res = run_process(
                dyn, config, max_rounds=cfg["max_rounds"], rng=rng, record=["counts"]
            )
            trajectory = res.trace.replica(0, "counts")
            for phase, st in _phase_stats(trajectory).items():
                entry = agg.setdefault(
                    phase, {"rounds": [], "growth": [], "decay": [], "lemma3_pred": []}
                )
                entry["rounds"].append(st["rounds"])
                entry["growth"].extend(st["growth"])  # type: ignore[arg-type]
                entry["decay"].extend(st["decay"])  # type: ignore[arg-type]
                entry["lemma3_pred"].extend(st["lemma3_pred"])  # type: ignore[arg-type]
        for phase in (PHASE_PLURALITY, PHASE_MAJORITY, PHASE_LAST_STEP):
            if phase not in agg:
                continue
            entry = agg[phase]
            table.add_row(
                n=n,
                k=k,
                phase=phase,
                mean_rounds=float(np.mean(entry["rounds"])),
                mean_growth_factor=(
                    float(np.mean(entry["growth"])) if entry["growth"] else float("nan")
                ),
                lemma3_prediction=(
                    float(np.mean(entry["lemma3_pred"])) if entry["lemma3_pred"] else float("nan")
                ),
                mean_decay_ratio=(
                    float(np.mean(entry["decay"])) if entry["decay"] else float("nan")
                ),
                lemma4_bound=8.0 / 9.0 if phase == PHASE_MAJORITY else float("nan"),
            )
    table.add_note(
        "phase 1: mean_growth_factor should exceed lemma3_prediction; phase 2: "
        "mean_decay_ratio should sit below 8/9; phase 3 should last ~1 round"
    )
    return table


SPEC = ExperimentSpec(
    id="E10",
    title="Three-phase trajectory structure (Lemmas 3-5)",
    claim=(
        "Below 2n/3 the bias multiplies by >= 1 + c1/(4n) per round; between 2n/3 and "
        "n - polylog the minority mass decays by <= 8/9 per round; above n - polylog all "
        "minorities die in one round."
    ),
    run=run,
    tags=("phases", "trajectory"),
)

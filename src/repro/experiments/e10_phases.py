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
Record each replica's bias and plurality count at several (n, k), one
ensemble spec per point, classify every recorded round of each replica's
valid prefix with :func:`repro.analysis.distance.plurality_phase`, and
report per phase: the rounds spent, the observed per-round bias growth
factor vs Lemma 3's ``1 + c1/(4n)``, the observed minority decay ratio
vs 8/9, and the length of the last-step phase (should be O(1) rounds).
"""

from __future__ import annotations

import numpy as np

from ..analysis.distance import (
    PHASE_LAST_STEP,
    PHASE_MAJORITY,
    PHASE_PLURALITY,
    plurality_phase,
)
from ..scenario import ScenarioSpec
from .harness import ExperimentSpec, spec_seed
from .results import ResultTable

_SCALE = {
    "smoke": dict(points=[(20_000, 8)], replicas=3, max_rounds=5_000),
    "small": dict(points=[(100_000, 8), (100_000, 32)], replicas=8, max_rounds=20_000),
    "paper": dict(
        points=[(1_000_000, 8), (1_000_000, 32), (1_000_000, 128)], replicas=16, max_rounds=100_000
    ),
}


def specs(scale: str, seed: int) -> list[ScenarioSpec]:
    cfg = _SCALE[scale]
    return [
        ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=n,
            k=k,
            replicas=cfg["replicas"],
            max_rounds=cfg["max_rounds"],
            record=["bias", "plurality-count"],
            seed=spec_seed(seed, "E10", n, k),
        )
        for n, k in cfg["points"]
    ]


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else float("nan")


def table(scale: str, seed: int, results) -> ResultTable:
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
    for (n, k), ens in zip(_SCALE[scale]["points"], results):
        trace = ens.trace
        c1 = trace["plurality-count"].astype(float)
        bias = trace["bias"].astype(float)
        minority = n - c1
        valid = trace.valid_mask()
        phases = plurality_phase(trace["plurality-count"], n)
        for phase in (PHASE_PLURALITY, PHASE_MAJORITY, PHASE_LAST_STEP):
            inside = (phases == phase) & valid
            visited = inside.any(axis=1)
            if not visited.any():
                continue
            # Per-round factors need round t + 1 in the replica's prefix too.
            stepped = inside[:, :-1] & valid[:, 1:]
            growth = prediction = decay = float("nan")
            if phase == PHASE_PLURALITY:
                at = stepped & (bias[:, :-1] > 0)
                growth = _mean(bias[:, 1:][at] / bias[:, :-1][at])
                prediction = _mean(1.0 + c1[:, :-1][at] / (4.0 * n))
            if phase == PHASE_MAJORITY:
                at = stepped & (minority[:, :-1] > 0)
                decay = _mean(minority[:, 1:][at] / minority[:, :-1][at])
            table.add_row(
                n=n,
                k=k,
                phase=phase,
                # Rounds each replica spent in the phase, over the
                # replicas that entered it.
                mean_rounds=float(inside.sum(axis=1)[visited].mean()),
                mean_growth_factor=growth,
                lemma3_prediction=prediction,
                mean_decay_ratio=decay,
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
    specs=specs,
    table=table,
    tags=("phases", "trajectory"),
)

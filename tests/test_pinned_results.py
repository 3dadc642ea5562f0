"""Results at equal seed must not move from one commit to the next.

One small case per runner path, each folded into a sha256 over rounds,
winners, converged, final counts, stop labels and the trace digest.  The
pinned values belong to ``ENGINE_SCHEMA_VERSION`` 4: cached results are
keyed by that version, so a change that moves any of these values must
bump it (and re-pin), or the cache would serve stale results as fresh.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import (
    BalancingAdversary,
    Configuration,
    HPlurality,
    MedianDynamics,
    PluralityFractionStop,
    ProcessResult,
    ThreeMajority,
    TwoChoices,
    UndecidedState,
    run_ensemble,
    run_process,
)
from repro.core.process import ENGINE_SCHEMA_VERSION
from repro.graphs import run_graph_ensemble, run_graph_process, torus

PINNED_SCHEMA = 4

#: Hand-placed colors for the vector-initial graph case: three contiguous
#: blocks on a 6x10 torus (60 agents, counts 30/20/10).
VECTOR_COLORS = np.repeat(np.arange(3, dtype=np.int64), [30, 20, 10])


def fingerprint(result) -> str:
    """sha256 over everything a runner reports, for one result."""
    if isinstance(result, ProcessResult):
        arrays = (
            [result.rounds],
            [-1 if result.winner is None else result.winner],
            [result.converged],
            result.final_counts[None, :],
        )
        labels = [result.stopped_by]
    else:
        arrays = (result.rounds, result.winners, result.converged, result.final_counts)
        labels = list(result.stopped_by)
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    digest.update("\0".join(labels).encode())
    digest.update((result.trace.digest() if result.trace is not None else "-").encode())
    return digest.hexdigest()


CASES = {
    "run_process": lambda: run_process(ThreeMajority(), Configuration([70, 50, 30]), rng=11),
    "dense-stop-record": lambda: run_ensemble(
        ThreeMajority(),
        Configuration([400, 300, 200, 100]),
        12,
        engine="dense",
        stopping=PluralityFractionStop(0.9),
        record=["bias", "plurality-fraction"],
        rng=12,
    ),
    "sparse-balancing": lambda: run_ensemble(
        ThreeMajority(),
        Configuration([240, 150, 120, 60, 20, 10]),
        8,
        engine="sparse",
        adversary=BalancingAdversary(3),
        record=["support-size"],
        max_rounds=400,
        rng=13,
    ),
    "undecided-state": lambda: run_ensemble(
        UndecidedState(), Configuration([200, 120, 80]), 8, record=["counts"], rng=14
    ),
    "two-choices": lambda: run_ensemble(
        TwoChoices(),
        Configuration([150, 100, 60, 40]),
        8,
        stopping=PluralityFractionStop(0.95),
        record=["bias"],
        rng=20,
    ),
    "median": lambda: run_ensemble(
        MedianDynamics(),
        Configuration([300, 500, 200, 400, 100]),
        8,
        stopping=PluralityFractionStop(0.99),
        record=["plurality-fraction"],
        rng=21,
    ),
    "agent-engine": lambda: run_ensemble(
        ThreeMajority(engine="agent"), Configuration([90, 60, 50]), 6, rng=15
    ),
    "unbatched": lambda: run_ensemble(
        ThreeMajority(),
        Configuration([60, 40, 20]),
        4,
        batch=False,
        stopping=PluralityFractionStop(0.9),
        record=["bias"],
        rng=16,
    ),
    "graph-ensemble-torus": lambda: run_graph_ensemble(
        ThreeMajority(),
        torus(8, 10),
        Configuration([40, 25, 15]),
        6,
        stopping=PluralityFractionStop(0.9),
        record=["counts", "bias"],
        max_rounds=300,
        rng=17,
    ),
    "graph-process-config": lambda: run_graph_process(
        HPlurality(3), torus(6, 10), Configuration([30, 20, 10]), max_rounds=3_000, rng=18
    ),
    "graph-process-vector": lambda: run_graph_process(
        HPlurality(3), torus(6, 10), VECTOR_COLORS, record=["counts"], max_rounds=3_000, rng=19
    ),
}

#: Computed by running each case on the commit before the graph runners
#: moved onto the shared loops.  The vector case ran there through the
#: retired ``h=3`` color-vector runner with ``counts`` recording, the rule
#: and stream ``run_graph_process(HPlurality(3), ...)`` reproduce.
#: Schema 4 re-pinned ``undecided-state`` and added ``two-choices``: both
#: step through the two-draw samplers.  ``median`` was added at schema 4
#: with the value schema 3 computes, since its class-wise draws did not
#: move; every other value is unchanged from schema 3.
PINNED = {
    "run_process": "e86869f2de977c3a973c95d6ce1428a6093ec5a218a0689e7222fe8edd8181a8",
    "dense-stop-record": "65a0b207cdd33de534121892d13a717004a8c5036fa0c36c95ec64f3f4b1f0d6",
    "sparse-balancing": "95714469adafd5812892b8ac4b899c2d9184d02291300c70a74b14543cea3fa6",
    "undecided-state": "c17a43252e20e8014c32717dd6d1dbb00a48d18933fbbc40bf8adb3d382bb0cc",
    "two-choices": "b49f8823b06d7322ff86f44d96e3e183fbea4c5ea98311f9fb95791eeaa6418f",
    "median": "838d36e89e444abf95152683c190dbcb7c3467d17b1346f5068134aeb09b0df4",
    "agent-engine": "a9f19a93289adde4b0409b0ec90bc094c9a46abf982c229b984106908dd274b3",
    "unbatched": "6c4f1336e36716c8f91117a6ed3d2f33da015b0ba152342a73349ac686256d87",
    "graph-ensemble-torus": "c4b8a7f6d63a607ef453cb40eb5a04e5340cf34f2ac8d60c5dbf210c8bf1010c",
    "graph-process-config": "870dde5e6f16e20e0aca175642a55c612a2023e1d3bb86a7d06472034e0d8fa0",
    "graph-process-vector": "d9dcc919070bf3982ca9067a374b23a51a64def70f19e74b9d18d22ebb712885",
}


def test_pins_belong_to_the_current_schema():
    assert ENGINE_SCHEMA_VERSION == PINNED_SCHEMA, (
        "ENGINE_SCHEMA_VERSION moved: recompute every value in PINNED at the new "
        "schema and update PINNED_SCHEMA"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_pinned_at_equal_seed(case):
    assert fingerprint(CASES[case]()) == PINNED[case], (
        f"{case}: results at equal seed changed.  If the change is intended, bump "
        "ENGINE_SCHEMA_VERSION (cached results are keyed by it) and re-pin these values"
    )

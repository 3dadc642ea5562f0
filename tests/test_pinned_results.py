"""Results at equal seed must not move from one commit to the next.

One small case per runner path, each folded into a sha256 over rounds,
winners, converged, final counts, stop labels and the trace digest.  The
pinned values belong to ``ENGINE_SCHEMA_VERSION`` 5: cached results are
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
    RandomAdversary,
    ThreeMajority,
    TwoChoices,
    TwoSampleUniform,
    UndecidedState,
    Voter,
    first_rule,
    majority_rule,
    majority_uniform_rule,
    max_rule,
    median_rule,
    min_rule,
    run_ensemble,
    run_process,
    skewed_rule,
    three_input_rule,
)
from repro.core.process import ENGINE_SCHEMA_VERSION
from repro.core.threeinput import PAIR_PATTERNS
from repro.graphs import run_graph_ensemble, run_graph_process, torus

PINNED_SCHEMA = 5

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
    "process-balancing": lambda: run_process(
        ThreeMajority(),
        Configuration([60, 50, 40, 30]),
        adversary=BalancingAdversary(3),
        record=["bias"],
        max_rounds=200,
        rng=31,
    ),
    "process-random": lambda: run_process(
        ThreeMajority(),
        Configuration([60, 50, 40, 30]),
        adversary=RandomAdversary(3),
        record=["bias"],
        max_rounds=200,
        rng=32,
    ),
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
    "h4-plurality-counts": lambda: run_ensemble(
        HPlurality(4), Configuration([120, 90, 60, 30]), 6, record=["bias"], rng=22
    ),
    "h5-plurality-counts": lambda: run_ensemble(
        HPlurality(5, engine="counts"), Configuration([100, 80, 60, 40, 20]), 6, rng=23
    ),
    "h7-plurality-auto": lambda: run_ensemble(
        HPlurality(7), Configuration([70, 60, 50, 40]), 6, rng=24
    ),
    "h5-plurality-k64-auto": lambda: run_ensemble(
        HPlurality(5), Configuration.balanced(320, 64), 4, max_rounds=400, rng=25
    ),
    "h1-plurality-agent": lambda: run_ensemble(
        HPlurality(1, engine="agent"),
        Configuration([30, 20, 10]),
        4,
        stopping=PluralityFractionStop(0.9),
        max_rounds=2_000,
        rng=26,
    ),
    "voter": lambda: run_ensemble(
        Voter(), Configuration([30, 20, 10]), 6, max_rounds=2_000, rng=27
    ),
    "2-sample-uniform": lambda: run_ensemble(
        TwoSampleUniform(), Configuration([30, 20, 10]), 6, max_rounds=2_000, rng=28
    ),
    "three-input-rule-counts": lambda: run_ensemble(
        three_input_rule({p: "major" for p in PAIR_PATTERNS}, "uniform", engine="counts"),
        Configuration([90, 60, 50]),
        6,
        rng=29,
    ),
    "three-input-rule-agent": lambda: run_ensemble(
        three_input_rule({p: "major" for p in PAIR_PATTERNS}, "uniform", engine="agent"),
        Configuration([90, 60, 50]),
        6,
        rng=30,
    ),
    # The seven named 3-input factories, each on the engine its
    # ``resolved_engine`` picks (counts, for every one of them).
    "first-rule": lambda: run_ensemble(
        first_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=33
    ),
    "majority-rule": lambda: run_ensemble(
        majority_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=34
    ),
    "majority-uniform-rule": lambda: run_ensemble(
        majority_uniform_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=35
    ),
    "max-rule": lambda: run_ensemble(
        max_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=36
    ),
    "median-rule": lambda: run_ensemble(
        median_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=37
    ),
    "min-rule": lambda: run_ensemble(
        min_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=38
    ),
    "skewed-rule": lambda: run_ensemble(
        skewed_rule(), Configuration([90, 60, 50]), 6, max_rounds=2_000, rng=39
    ),
}

#: Computed by running each case on the commit before the graph runners
#: moved onto the shared loops.  The vector case ran there through the
#: retired ``h=3`` color-vector runner with ``counts`` recording, the rule
#: and stream ``run_graph_process(HPlurality(3), ...)`` reproduce.
#: Schema 4 re-pinned ``undecided-state`` and added ``two-choices``: both
#: step through the two-draw samplers.  ``median`` was added at schema 4
#: with the value schema 3 computes, since its class-wise draws did not
#: move; every other value is unchanged from schema 3.  The nine cases
#: from ``h4-plurality-counts`` on were added at schema 4 with the values
#: schema 4 computes: h-plurality's composition-table law at h = 4 and 5,
#: its agent fallback at h = 7 and at h = 5, k = 64, the agent engine at
#: h = 1, the voter, 2-sample-uniform, and one 3-input rule on each engine.
#: Schema 5 re-pinned ``h7-plurality-auto`` and ``h5-plurality-k64-auto``:
#: ``auto`` now steps the generating-function law there instead of the
#: agent engine.  The h = 4 and 5 counts cases kept their values (the new
#: law differs from the tables by ulps, which moved no draw of theirs), as
#: did ``h1-plurality-agent`` (its bump retires stale schema-4 cache
#: entries; its draws did not move here).  ``process-balancing`` and
#: ``process-random`` were added at schema 5 with the values it computes:
#: the one-trajectory runner's adversary path for the greedy and the
#: random strategy.  The seven named 3-input factories, from ``first-rule``
#: to ``skewed-rule``, were added at schema 5 with the values it computes.
PINNED = {
    "run_process": "e86869f2de977c3a973c95d6ce1428a6093ec5a218a0689e7222fe8edd8181a8",
    "process-balancing": "761aa623203be4771f3657ed5e0d4184bfd408655b4685acc6bc0eb16d272dca",
    "process-random": "691141b5f365b364492cae5ea575ca0a42fc46ba2d78ea3e8d82f0475ee7a60e",
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
    "h4-plurality-counts": "d20202b590aada399e3822e1f21c73f752d6a78e3f69d6eb5692e12cc181a029",
    "h5-plurality-counts": "51a081ef3214a79ea4d3ff04250a5266c493bbea075ac6117aee144f43f05ebf",
    "h7-plurality-auto": "e50fb749d6e533757b15c901a73ff7659fcc12125f1952d637070ca780b8e270",
    "h5-plurality-k64-auto": "78481ecaef8f5eb76e83187223a82b2dd8332cd080b4a15daa9ca466bc834131",
    "h1-plurality-agent": "e390116856d0fa5b35bd47242a61964cf55dd3087e5b8ca3c1babef077afff2f",
    "voter": "df5d16550af1e54fde24e73fe571da79ecdc5e3b25063f0797cd02a0c218147e",
    "2-sample-uniform": "fc5905e0ce0e23eaa81f3938d5c09167e9c931d85b9c4f93d57380ddf3cea92f",
    "three-input-rule-counts": "5dd96e93152482dfb514cb9cd6fa85ee1f5ddb8a283a44a769e36778c5339464",
    "three-input-rule-agent": "b5f4f84b66f10e7c8d55c35e522dda7472e787453d4d56112378ccadd25cf0d6",
    "first-rule": "b1ec13f4ab61397dd09b2caedffa67a7b2f243dc9209cd7f6224578955f08698",
    "majority-rule": "05bc9b2db981104330d32c84bf637edf6b55934e0708fb83ef29a49bd60e10d1",
    "majority-uniform-rule": "624d15efaf3397dedc8ff017de540e0cfa9e9e5d95e902922c766ad290d6f701",
    "max-rule": "792f64ac41758629a3d5d29f819afd2a3ab84aa411e814286d0f33d81a6bf27c",
    "median-rule": "de0d11b3d31c137215a6d358f39de6e3711827239d20adbd160380a57aaa7cbb",
    "min-rule": "d9a5a67e47fc3b1cc4771b051cd1f1677ce7147c8f9b4f9eb598be20a65accf1",
    "skewed-rule": "439efc4b47312346363be576e072d3a2a431221061eea0208e0f2b8400626efc",
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

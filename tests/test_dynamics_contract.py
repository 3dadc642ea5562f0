"""The contract every registered dynamics declares to the engines.

The engines never switch on the type of a dynamics: they read
``resolved_engine(k)`` and ``agent_rule(k)``, and step a clique batch
through ``step_many``.  For every name in the registry (plus the agent
engine of the three rules that take ``engine=``) this checks that

* ``step`` is the one-row ``step_many``, draw for draw, and leaves the
  generator where the batch call leaves it;
* the declared per-agent rule samples the right number of neighbours and
  draws randomness exactly when the rule breaks ties at random;
* every name is a ``CountsDynamics``, and every law the counts engine
  samples accepts an ``(R, k)`` batch: ``color_law`` on the batch is the
  row-by-row stack, exactly.

A dynamics that defines only ``step`` still runs, through the row-loop
``Dynamics.step_many``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Configuration, Dynamics, run_ensemble, run_process
from repro.core.dynamics import CountsDynamics
from repro.core.registry import DYNAMICS

#: Constructor keywords for registered dynamics that need some.
BUILD_PARAMS = {
    "h-plurality": {"h": 3},
    "three-input-rule": {
        "pair_choice": {"XXY": "major", "XYX": "major", "YXX": "major"},
        "distinct_choice": "uniform",
    },
}

#: The rules whose constructor takes ``engine=``.
AGENT_ENGINES = ("3-majority", "h-plurality", "three-input-rule")

CASES = [(name, BUILD_PARAMS.get(name, {})) for name in DYNAMICS.names()] + [
    (name, {**BUILD_PARAMS.get(name, {}), "engine": "agent"}) for name in AGENT_ENGINES
]


def case_id(case) -> str:
    name, params = case
    return name + ("/agent" if params.get("engine") == "agent" else "")


#: Each rule's declared (neighbour samples h, draws randomness); None: no rule.
RULE_TABLE = [
    ("3-majority", {}, (3, False)),
    ("3-majority", {"tie_break": "uniform"}, (3, True)),
    ("h-plurality", {"h": 1}, (1, False)),
    ("h-plurality", {"h": 2}, (2, True)),
    ("h-plurality", {"h": 3}, (3, True)),
    ("h-plurality", {"h": 7}, (7, True)),
    ("2-sample-uniform", {}, (2, True)),
    ("voter", {}, (1, False)),
    ("two-choices", {}, (2, False)),
    ("median", {}, (2, False)),
    ("majority-rule", {}, (3, False)),
    ("majority-uniform-rule", {}, (3, True)),
    ("median-rule", {}, (3, False)),
    ("min-rule", {}, (3, False)),
    ("max-rule", {}, (3, False)),
    ("first-rule", {}, (3, False)),
    ("skewed-rule", {}, (3, False)),
    ("three-input-rule", BUILD_PARAMS["three-input-rule"], (3, True)),
    (
        "three-input-rule",
        {"pair_choice": BUILD_PARAMS["three-input-rule"]["pair_choice"],
         "distinct_choice": {"012": 0, "021": 0, "102": 0, "120": 0, "201": 0, "210": 0}},
        (3, False),
    ),
    ("undecided-state", {}, None),
]

#: Rows of every shape ``step`` must treat as a one-row batch: zero mass,
#: extinct columns, a single agent.
ROWS = np.array(
    [[5, 3, 2, 0], [0, 0, 0, 0], [40, 0, 7, 3], [1, 1, 1, 1], [0, 0, 1, 0], [300, 200, 100, 9]],
    dtype=np.int64,
)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_step_is_the_one_row_step_many(case):
    name, params = case
    dynamics = DYNAMICS.build(name, **params)
    for offset, row in enumerate(ROWS):
        step_rng = np.random.default_rng([41, offset])
        many_rng = np.random.default_rng([41, offset])
        stepped = dynamics.step(row, step_rng)
        many = dynamics.step_many(row[None, :], many_rng)
        assert stepped.dtype == np.int64 and many.shape == (1, row.size)
        np.testing.assert_array_equal(stepped, many[0])
        assert step_rng.bit_generator.state == many_rng.bit_generator.state
        assert stepped.sum() == row.sum()


@pytest.mark.parametrize(
    "name, params, expected",
    RULE_TABLE,
    ids=[f"{name}-{index}" for index, (name, _, _) in enumerate(RULE_TABLE)],
)
def test_agent_rule_declares_samples_and_draws(name, params, expected):
    dynamics = DYNAMICS.build(name, **params)
    rule = dynamics.agent_rule(4)
    if expected is None:
        assert rule is None
        return
    assert (rule.h, rule.consumes_rng) == expected
    # The rule returns one of its inputs for every agent (Definition 1).
    rng = np.random.default_rng(3)
    own = rng.integers(0, 4, size=200)
    seen = rng.integers(0, 4, size=(200, rule.h))
    before = rng.bit_generator.state
    out = rule.reduce(own, seen, rng if rule.consumes_rng else None)
    assert out.shape == own.shape
    assert ((out[:, None] == seen).any(axis=1) | (out == own)).all()
    if not rule.consumes_rng:
        assert rng.bit_generator.state == before


#: Positive-mass batches the counts engine hands a law: extinct colors, a
#: single agent, and a one-column batch.
LAW_BATCHES = [ROWS[ROWS.sum(axis=1) > 0], np.array([[7], [1], [30]], dtype=np.int64)]

#: The names that draw with a ``_step_rows`` of their own, not from their law.
OWN_SAMPLERS = {"two-choices", "median", "undecided-state"}

#: Every registered name, plus h-plurality's generating-function law (h >= 4).
LAW_CASES = [(name, BUILD_PARAMS.get(name, {})) for name in DYNAMICS.names()] + [
    ("h-plurality", {"h": 5})
]


@pytest.mark.parametrize(
    "name, params",
    LAW_CASES,
    ids=[f"{name}/h{params['h']}" if "h" in params else name for name, params in LAW_CASES],
)
def test_every_sampled_law_accepts_a_batch(name, params):
    dynamics = DYNAMICS.build(name, **params)
    # One clique batch entry for every name, undecided-state included.
    assert isinstance(dynamics, CountsDynamics)
    if type(dynamics)._step_rows is not CountsDynamics._step_rows:
        assert name in OWN_SAMPLERS
        return
    assert name not in OWN_SAMPLERS
    for batch in LAW_BATCHES:
        law = dynamics.color_law(batch)
        assert law.shape == batch.shape
        np.testing.assert_array_equal(law, np.stack([dynamics.color_law(row) for row in batch]))


@pytest.mark.parametrize(
    "name, params",
    LAW_CASES,
    ids=[f"{name}/h{params['h']}" if "h" in params else name for name, params in LAW_CASES],
)
def test_every_color_law_is_the_row_stack_on_a_batch(name, params):
    # The own samplers' laws too: nothing samples them, but the exact chain
    # and the mean-field flow read them, and a law must not depend on the
    # rows it is evaluated beside.
    dynamics = DYNAMICS.build(name, **params)
    for batch in LAW_BATCHES:
        law = dynamics.color_law(batch)
        assert law.shape == batch.shape
        np.testing.assert_array_equal(law, np.stack([dynamics.color_law(row) for row in batch]))
        if hasattr(dynamics, "class_transition_matrix"):
            matrices = dynamics.class_transition_matrix(batch)
            rows = [dynamics.class_transition_matrix(row) for row in batch]
            np.testing.assert_array_equal(matrices, np.stack(rows))


def test_every_registered_name_is_in_the_rule_table():
    assert {name for name, _, _ in RULE_TABLE} == set(DYNAMICS.names())


class StepOnlyVoter(Dynamics):
    """Defines only ``step``: every agent copies one uniform sample."""

    name = "step-only-voter"

    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        return rng.multinomial(int(counts.sum()), counts / counts.sum())


def test_a_dynamics_that_defines_only_step_runs():
    dynamics = StepOnlyVoter()
    initial = Configuration([30, 20, 10])
    first = run_ensemble(dynamics, initial, 8, max_rounds=10_000, rng=5)
    again = run_ensemble(dynamics, initial, 8, max_rounds=10_000, rng=5)
    assert first.converged.all()
    assert (first.final_counts.sum(axis=1) == 60).all()
    assert (first.final_counts.max(axis=1) == 60).all()
    np.testing.assert_array_equal(first.rounds, again.rounds)
    np.testing.assert_array_equal(first.final_counts, again.final_counts)
    single = run_process(dynamics, initial, max_rounds=10_000, rng=5)
    assert single.converged and single.final_counts.sum() == 60

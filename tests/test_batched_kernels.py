"""Replica-batched ``step_many`` kernels: their stream contracts.

Median steps a whole replica batch through one class-wise multinomial
call per chunk of rows, and must consume the generator exactly as
stepping the rows one by one with one shared generator does
(``reference_step_many`` below).

Two-choices and undecided-state step a batch in two NumPy calls: every
row's binomials, then every row's multinomial.  By design that is not
the per-row loop's stream.  Their contract on the same grid is that
``step`` is the one-row batch, draw for draw, and that zero-mass rows
draw nothing, so dropping them leaves every other row's draws unchanged.
Their laws are checked against the exact chain in
``tests/test_exact_samplers.py``.

The empty-batch and zero-mass-row contracts are checked for every
registered dynamics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import median as median_module
from repro.core.median import MedianDynamics
from repro.core.registry import DYNAMICS
from repro.core.undecided import UndecidedState
from repro.core.voter import TwoChoices

#: name -> (class, extra state slots beyond the k colors)
BATCHED = {
    "two-choices": (TwoChoices, 0),
    "median": (MedianDynamics, 0),
    "undecided-state": (UndecidedState, 1),
}

#: Constructor keywords for registered dynamics that need some.
BUILD_PARAMS = {
    "h-plurality": {"h": 3},
    "three-input-rule": {
        "pair_choice": {"XXY": "major", "XYX": "major", "YXX": "major"},
        "distinct_choice": "uniform",
    },
}


def reference_step_many(dynamics, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The per-row loop ``step_many`` must reproduce draw for draw."""
    if len(batch) == 0:
        return batch.copy()
    return np.stack([dynamics.step(row, rng) for row in batch])


def random_batch(gen: np.random.Generator, rows: int, slots: int) -> np.ndarray:
    """Rows of different totals, some of zero mass, most with extinct columns."""
    batch = np.zeros((rows, slots), dtype=np.int64)
    for row in range(rows):
        if gen.random() < 0.15:
            continue  # zero mass
        alive = gen.random(slots) < gen.uniform(0.2, 1.0)
        alive[gen.integers(slots)] = True
        weights = gen.random(slots) * alive
        batch[row] = gen.multinomial(int(gen.integers(1, 5_000)), weights / weights.sum())
    return batch


def assert_same_stream(dynamics, batch: np.ndarray, seed: int) -> None:
    fast_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    fast = dynamics.step_many(batch, fast_rng)
    ref = reference_step_many(dynamics, batch, ref_rng)
    assert fast.dtype == np.int64
    np.testing.assert_array_equal(fast, ref)
    # Equal next draws: the batch consumed exactly the reference's stream.
    assert fast_rng.integers(2**62) == ref_rng.integers(2**62)


def assert_one_row_is_step(dynamics, batch: np.ndarray, seed: int) -> None:
    """``step(row)`` is ``step_many(row[None])[0]``, draw for draw."""
    for offset, row in enumerate(batch):
        step_rng = np.random.default_rng([seed, offset])
        many_rng = np.random.default_rng([seed, offset])
        stepped = dynamics.step(row, step_rng)
        many = dynamics.step_many(row[None, :], many_rng)
        assert stepped.dtype == np.int64 and many.shape == (1, row.size)
        np.testing.assert_array_equal(stepped, many[0])
        assert step_rng.integers(2**62) == many_rng.integers(2**62)


def assert_dead_rows_draw_nothing(dynamics, batch: np.ndarray, seed: int) -> None:
    """Zero-mass rows come back unchanged and leave the live rows' draws alone."""
    live = batch.sum(axis=1) > 0
    full_rng = np.random.default_rng(seed)
    live_rng = np.random.default_rng(seed)
    full = dynamics.step_many(batch, full_rng)
    alone = dynamics.step_many(batch[live], live_rng)
    assert full.dtype == np.int64 and full.shape == batch.shape
    np.testing.assert_array_equal(full[~live], batch[~live])
    np.testing.assert_array_equal(full[live], alone)
    assert full_rng.integers(2**62) == live_rng.integers(2**62)


def assert_batch_contract(name: str, dynamics, batch: np.ndarray, seed: int) -> None:
    """Median: the per-row loop.  The two-draw samplers: their own contract."""
    if name == "median":
        assert_same_stream(dynamics, batch, seed)
    else:
        assert_one_row_is_step(dynamics, batch, seed)
        assert_dead_rows_draw_nothing(dynamics, batch, seed)


@pytest.mark.parametrize("name", sorted(BATCHED))
class TestBitIdentity:
    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 41])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
    def test_matches_per_row_loop(self, name, rows, k):
        cls, extra = BATCHED[name]
        gen = np.random.default_rng([rows, k, extra])
        batch = random_batch(gen, rows, k + extra)
        assert_batch_contract(name, cls(), batch, seed=rows * 1_000 + k)

    def test_random_shapes(self, name):
        cls, extra = BATCHED[name]
        gen = np.random.default_rng(2024)
        for case in range(40):
            rows = int(gen.integers(0, 48))
            k = int(gen.choice([1, 2, 4, 5, 16, 33, 70]))
            assert_batch_contract(name, cls(), random_batch(gen, rows, k + extra), seed=case)

    @pytest.mark.parametrize("cells", [1, 7, 64, 10_000])
    def test_chunk_size_does_not_change_draws(self, name, cells, monkeypatch):
        cls, extra = BATCHED[name]
        batch = random_batch(np.random.default_rng(5), 23, 5 + extra)
        expected = cls().step_many(batch, np.random.default_rng(9))
        monkeypatch.setattr(median_module, "CHUNK_CELLS", cells)
        assert_batch_contract(name, cls(), batch, seed=9)
        np.testing.assert_array_equal(cls().step_many(batch, np.random.default_rng(9)), expected)


@pytest.mark.parametrize("cls", [TwoChoices, MedianDynamics], ids=["two-choices", "median"])
class TestClasswiseKernel:
    def test_transition_matrix_broadcasts_bitwise(self, cls):
        batch = random_batch(np.random.default_rng(8), 12, 9)
        batch = batch[batch.sum(axis=1) > 0]
        stacked = cls().class_transition_matrix(batch)
        assert stacked.shape == (len(batch), 9, 9)
        for row, mat in zip(batch, stacked):
            np.testing.assert_array_equal(cls().class_transition_matrix(row), mat)
        np.testing.assert_allclose(stacked.sum(axis=-1), 1.0)

    def test_transition_matrix_rejects_an_empty_row(self, cls):
        with pytest.raises(ValueError, match="empty configuration"):
            cls().class_transition_matrix(np.array([[1, 2, 3], [0, 0, 0]]))


@pytest.mark.parametrize("name", DYNAMICS.names())
def test_empty_batch_draws_nothing(name):
    dynamics = DYNAMICS.build(name, **BUILD_PARAMS.get(name, {}))
    rng = np.random.default_rng(17)
    out = dynamics.step_many(np.zeros((0, 4), dtype=np.int64), rng)
    assert out.shape == (0, 4)
    assert rng.bit_generator.state == np.random.default_rng(17).bit_generator.state


@pytest.mark.parametrize("name", DYNAMICS.names())
def test_zero_mass_row_comes_back_unchanged(name):
    dynamics = DYNAMICS.build(name, **BUILD_PARAMS.get(name, {}))
    batch = np.array([[5, 3, 2, 0], [0, 0, 0, 0]], dtype=np.int64)
    assert_dead_rows_draw_nothing(dynamics, batch, seed=23)
    # Zero-mass rows anywhere in the batch, around live rows of any total.
    batch = np.array(
        [[0, 0, 0, 0], [40, 0, 7, 3], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]], dtype=np.int64
    )
    assert_dead_rows_draw_nothing(dynamics, batch, seed=29)

"""Tests for F-bounded adversaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    BalancingAdversary,
    Configuration,
    RandomAdversary,
    ReviveAdversary,
    TargetedAdversary,
    ThreeMajority,
    run_process,
)
from repro.core.adversary import Adversary


def greedy_balance(counts: np.ndarray, budget: int) -> np.ndarray:
    """The balancing strategy on one row: level the max and the smallest
    supported color, one greedy block at a time (the batch reference)."""
    remaining = budget
    while remaining > 0:
        supported = np.nonzero(counts > 0)[0]
        if supported.size <= 1:
            break
        top = int(np.argmax(counts))  # the max is always supported
        low = int(supported[np.argmin(counts[supported])])
        gap = int(counts[top] - counts[low])
        if gap <= 1:
            break
        # Move just enough to level, bounded by the budget.
        move = min(remaining, gap // 2)
        counts[top] -= move
        counts[low] += move
        remaining -= move
    return counts


class TestContract:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            TargetedAdversary(-1)

    def test_cheating_adversary_is_caught(self, rng):
        class Cheater(Adversary):
            def _act_many(self, counts, rng):
                counts[:, 0] += 100  # creates agents
                return counts

        with pytest.raises(RuntimeError, match="number of agents"):
            Cheater(5).corrupt(np.array([10, 10]), rng)

    def test_over_budget_is_caught(self, rng):
        class OverBudget(Adversary):
            def _act_many(self, counts, rng):
                counts[:, 0] -= 10
                counts[:, 1] += 10
                return counts

        with pytest.raises(RuntimeError, match="budget"):
            OverBudget(5).corrupt(np.array([20, 0]), rng)

    def test_negative_counts_are_caught(self, rng):
        class Negative(Adversary):
            def _act_many(self, counts, rng):
                counts[:, 0] -= counts[:, 0] + 1
                counts[:, 1] += counts[:, 0] + 1
                return counts

        with pytest.raises(RuntimeError):
            Negative(100).corrupt(np.array([3, 3]), rng)


class TestTargeted:
    def test_moves_plurality_to_runner_up(self, rng):
        out = TargetedAdversary(5).corrupt(np.array([50, 30, 20]), rng)
        assert out.tolist() == [45, 35, 20]

    def test_budget_capped_by_plurality(self, rng):
        out = TargetedAdversary(100).corrupt(np.array([3, 2, 1]), rng)
        assert out.sum() == 6
        assert out[0] == 0

    def test_reduces_bias_by_2f(self, rng):
        before = Configuration([50, 30, 20])
        after = Configuration(TargetedAdversary(5).corrupt(before.counts, rng))
        assert after.bias == before.bias - 10


class TestBalancing:
    def test_levels_top_two(self, rng):
        out = BalancingAdversary(100).corrupt(np.array([60, 20, 20]), rng)
        assert max(out) - min(out) <= 1

    def test_respects_budget(self, rng):
        before = np.array([80, 10, 10])
        out = BalancingAdversary(5).corrupt(before, rng)
        assert np.abs(out - before).sum() // 2 <= 5

    def test_noop_when_already_flat(self, rng):
        out = BalancingAdversary(10).corrupt(np.array([5, 5, 5]), rng)
        assert out.tolist() == [5, 5, 5]

    # -- regression: plain argmin fed dead colors ([10, 6, 0] -> [5, 6, 5]) --

    def test_never_resurrects_dead_colors(self, rng):
        out = BalancingAdversary(5).corrupt(np.array([10, 6, 0]), rng)
        assert out.tolist() == [8, 8, 0]

    def test_levels_among_supported_only(self, rng):
        out = BalancingAdversary(100).corrupt(np.array([60, 0, 20, 0, 20]), rng)
        assert out[[1, 3]].tolist() == [0, 0]
        supported = out[[0, 2, 4]]
        assert supported.max() - supported.min() <= 1

    def test_single_supported_color_is_noop(self, rng):
        out = BalancingAdversary(10).corrupt(np.array([7, 0, 0]), rng)
        assert out.tolist() == [7, 0, 0]

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=200), min_size=3, max_size=5).filter(
                lambda xs: sum(xs) > 0
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.integers(min_value=0, max_value=80),
    )
    def test_batched_balancing_matches_per_row(self, rows, budget):
        adv = BalancingAdversary(budget)
        rng = np.random.default_rng(3)
        batch = np.array(rows, dtype=np.int64)
        many = adv._act_many(batch.copy(), rng)
        single = np.stack([greedy_balance(row.copy(), budget) for row in batch])
        assert np.array_equal(many, single)
        # Dead colors stay dead, row by row.
        assert not np.any((batch == 0) & (many > 0))


class TestRandomAndRevive:
    def test_random_preserves_mass(self, rng):
        out = RandomAdversary(20).corrupt(np.array([50, 30, 20]), rng)
        assert out.sum() == 100

    def test_random_zero_budget_is_noop(self, rng):
        out = RandomAdversary(0).corrupt(np.array([5, 5]), rng)
        assert out.tolist() == [5, 5]

    def test_revive_feeds_weakest(self, rng):
        out = ReviveAdversary(4).corrupt(np.array([90, 10, 0]), rng)
        assert out.tolist() == [86, 10, 4]

    def test_revive_noop_on_flat(self, rng):
        out = ReviveAdversary(4).corrupt(np.array([5, 5]), rng)
        assert out.sum() == 10


class TestWithProcess:
    def test_small_f_does_not_stop_plurality(self):
        cfg = Configuration.biased(20_000, 4, 3_000)
        res = run_process(
            ThreeMajority(),
            cfg,
            adversary=TargetedAdversary(5),
            max_rounds=500,
            rng=0,
        )
        # Consensus is impossible (adversary keeps flipping 5 agents), but
        # the plurality must dominate all but O(F)-ish agents.
        final = res.final_counts
        assert np.argmax(final) == res.plurality_color
        assert final.max() >= 20_000 - 100

    def test_huge_f_destroys_bias(self):
        cfg = Configuration.biased(2_000, 4, 100)
        res = run_process(
            ThreeMajority(),
            cfg,
            adversary=TargetedAdversary(500),
            max_rounds=50,
            rng=0,
        )
        assert not res.converged


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=6).filter(
        lambda xs: sum(xs) > 0
    ),
    st.integers(min_value=0, max_value=50),
)
def test_all_adversaries_respect_contract(counts, budget):
    rng = np.random.default_rng(9)
    counts = np.array(counts)
    for adv in (
        TargetedAdversary(budget),
        BalancingAdversary(budget),
        RandomAdversary(budget),
        ReviveAdversary(budget),
    ):
        out = adv.corrupt(counts, rng)  # corrupt() itself enforces the contract
        assert out.sum() == counts.sum()
        assert (out >= 0).all()

"""A1 ablations — which design choices are immaterial or material to the results.

* exact multinomial engine vs agent-level engine: identical statistics
  (asserted on one-round means), ~n/k speed gap (timed);
* tie-break convention ("first" vs "uniform"): identical marginal law
  (Section 2 of the paper), asserted empirically;
* batched-ensemble vs per-replica execution: identical statistics, large
  speed gap (timed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Configuration, ThreeMajority, run_ensemble
from repro.core.majority import three_majority_law

SEED = 7


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(SEED)


class TestEngineAblation:
    N, K = 30_000, 8

    def _counts(self):
        return Configuration.biased(self.N, self.K, 3_000).counts

    def test_exact_engine_speed(self, benchmark, rng):
        dyn = ThreeMajority()
        counts = self._counts()
        benchmark(lambda: dyn.step(counts, rng))

    def test_agent_engine_speed(self, benchmark, rng):
        dyn = ThreeMajority(engine="agent")
        counts = self._counts()
        benchmark(lambda: dyn.step(counts, rng))

    def test_engines_statistically_identical(self, benchmark, rng):
        counts = self._counts()
        mu = three_majority_law(counts) * self.N
        reps = 150

        def agree() -> float:
            exact = np.zeros(self.K)
            agent = np.zeros(self.K)
            e, a = ThreeMajority(), ThreeMajority(engine="agent")
            for _ in range(reps):
                exact += e.step(counts, rng)
                agent += a.step(counts, rng)
            stderr = np.sqrt(self.N * 0.25 / reps)
            dev_e = np.max(np.abs(exact / reps - mu)) / stderr
            dev_a = np.max(np.abs(agent / reps - mu)) / stderr
            return max(dev_e, dev_a)

        worst = benchmark.pedantic(agree, rounds=1, iterations=1)
        assert worst < 6.0


class TestTieBreakAblation:
    def test_tie_breaks_share_marginal(self, benchmark, rng):
        counts = Configuration([12_000, 10_000, 8_000]).counts
        mu = three_majority_law(counts) * 30_000
        reps = 150

        def deviation() -> float:
            first = ThreeMajority(engine="agent", tie_break="first")
            uniform = ThreeMajority(engine="agent", tie_break="uniform")
            acc_f, acc_u = np.zeros(3), np.zeros(3)
            for _ in range(reps):
                acc_f += first.step(counts, rng)
                acc_u += uniform.step(counts, rng)
            stderr = np.sqrt(30_000 * 0.25 / reps)
            return float(
                max(
                    np.max(np.abs(acc_f / reps - mu)),
                    np.max(np.abs(acc_u / reps - mu)),
                )
                / stderr
            )

        worst = benchmark.pedantic(deviation, rounds=1, iterations=1)
        assert worst < 6.0


class TestBatchingAblation:
    CFG = Configuration.biased(20_000, 6, 2_500)

    def test_batched_ensemble_speed(self, benchmark):
        benchmark.pedantic(
            lambda: run_ensemble(ThreeMajority(), self.CFG, 64, rng=SEED, batch=True),
            rounds=1,
            iterations=3,
        )

    def test_unbatched_ensemble_speed(self, benchmark):
        benchmark.pedantic(
            lambda: run_ensemble(ThreeMajority(), self.CFG, 64, rng=SEED, batch=False),
            rounds=1,
            iterations=3,
        )

    def test_batching_preserves_statistics(self, benchmark):
        def stats() -> float:
            fast = run_ensemble(ThreeMajority(), self.CFG, 128, rng=1, batch=True)
            slow = run_ensemble(ThreeMajority(), self.CFG, 128, rng=2, batch=False)
            assert fast.plurality_win_rate == slow.plurality_win_rate == 1.0
            return abs(
                float(fast.rounds[fast.converged].mean())
                - float(slow.rounds[slow.converged].mean())
            )

        gap = benchmark.pedantic(stats, rounds=1, iterations=1)
        assert gap < 1.5

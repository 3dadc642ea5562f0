"""Throughput benchmarks for the low-level step engines.

These quantify the engine claim of the README (and the matrix in
``core/dynamics.py``): the exact counts-level engine
makes a round O(k) instead of O(n), enabling n = 10^6+ at microsecond
round costs, while the agent-level engine (the ground truth every law is
checked against) pays O(n·h).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Configuration,
    HPlurality,
    MedianDynamics,
    ThreeMajority,
    UndecidedState,
    majority_rule,
    skewed_rule,
)
from repro.core.samplers import row_plurality


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


class TestCountsEngine:
    def test_three_majority_step_n1e6_k100(self, benchmark, rng):
        counts = Configuration.biased(1_000_000, 100, 50_000).counts
        dyn = ThreeMajority()
        benchmark.extra_info.update(engine="counts", n=1_000_000, k=100)
        benchmark(lambda: dyn.step(counts, rng))

    def test_three_input_rule_step_counts_n1e5_k64(self, benchmark, rng):
        counts = Configuration.biased(100_000, 64, 10_000).counts
        rule = majority_rule()  # O(k) pattern-decomposed law
        benchmark.extra_info.update(engine="counts", n=100_000, k=64)
        benchmark(lambda: rule.step(counts, rng))

    def test_three_majority_step_n1e7_k1000(self, benchmark, rng):
        counts = Configuration.biased(10_000_000, 1_000, 500_000).counts
        dyn = ThreeMajority()
        benchmark(lambda: dyn.step(counts, rng))

    def test_batched_replicas_1024(self, benchmark, rng):
        batch = np.tile(Configuration.biased(100_000, 16, 5_000).counts, (1024, 1))
        dyn = ThreeMajority()
        benchmark(lambda: dyn.step_many(batch, rng))

    def test_undecided_step_n1e6(self, benchmark, rng):
        state = UndecidedState.extend_counts(
            Configuration.biased(1_000_000, 64, 50_000).counts, undecided=0
        )
        dyn = UndecidedState()
        benchmark(lambda: dyn.step(state, rng))

    def test_median_step_k512(self, benchmark, rng):
        # O(k^2) class-wise engine.
        counts = Configuration.biased(1_000_000, 512, 100_000).counts
        dyn = MedianDynamics()
        benchmark(lambda: dyn.step(counts, rng))


class TestE5RuleEngines:
    """The acceptance pair: one arbitrary-rule round at n = 10^5, k = 5.

    The counts-level engine must beat agent-level by >= 20x here; the
    JSON records both so the ratio is tracked across PRs.
    """

    N, K = 100_000, 5

    def _counts(self):
        return Configuration.biased(self.N, self.K, 10_000).counts

    def test_e5_rule_step_counts_n1e5_k5(self, benchmark, rng):
        rule = skewed_rule((1, 3, 2))
        counts = self._counts()
        benchmark.extra_info.update(engine="counts", n=self.N, k=self.K, rule=rule.name)
        benchmark(lambda: rule.step(counts, rng))

    def test_e5_rule_step_agent_n1e5_k5(self, benchmark, rng):
        rule = skewed_rule((1, 3, 2))
        rule.engine = "agent"
        counts = self._counts()
        benchmark.extra_info.update(engine="agent", n=self.N, k=self.K, rule=rule.name)
        benchmark(lambda: rule.step(counts, rng))

    def test_e5_rule_ensemble_round_counts_r200(self, benchmark, rng):
        rule = skewed_rule((1, 3, 2))
        batch = np.tile(self._counts(), (200, 1))
        benchmark.extra_info.update(engine="counts", n=self.N, k=self.K, replicas=200)
        benchmark(lambda: rule.step_many(batch, rng))


class TestHPluralityEngines:
    def test_hplurality_step_counts_n1e5_h5_k16(self, benchmark, rng):
        counts = Configuration.biased(100_000, 16, 10_000).counts
        dyn = HPlurality(5)
        assert dyn.resolved_engine(16) == "counts"
        benchmark.extra_info.update(engine="counts", n=100_000, k=16, h=5)
        benchmark(lambda: dyn.step(counts, rng))

    def test_hplurality_step_agent_n1e5_h5_k16(self, benchmark, rng):
        counts = Configuration.biased(100_000, 16, 10_000).counts
        dyn = HPlurality(5, engine="agent")
        benchmark.extra_info.update(engine="agent", n=100_000, k=16, h=5)
        benchmark(lambda: dyn.step(counts, rng))


class TestAgentEngine:
    def test_hplurality_step_n1e5_h7(self, benchmark, rng):
        counts = Configuration.biased(100_000, 32, 10_000).counts
        dyn = HPlurality(7, engine="agent")  # auto would step the exact law
        benchmark.extra_info.update(engine="agent", n=100_000, k=32, h=7)
        benchmark(lambda: dyn.step(counts, rng))

    def test_agent_level_three_majority_n1e5(self, benchmark, rng):
        counts = Configuration.biased(100_000, 16, 10_000).counts
        dyn = ThreeMajority(engine="agent")
        benchmark.extra_info.update(engine="agent", n=100_000, k=16)
        benchmark(lambda: dyn.step(counts, rng))

    def test_three_input_rule_step_agent_n1e5_k64(self, benchmark, rng):
        counts = Configuration.biased(100_000, 64, 10_000).counts
        rule = majority_rule()
        rule.engine = "agent"  # the O(k) law now covers every k; force agent
        benchmark.extra_info.update(engine="agent", n=100_000, k=64)
        benchmark(lambda: rule.step(counts, rng))

    def test_row_plurality_reduction(self, benchmark, rng):
        # Uniform samples: the balanced 32-color configuration's law.
        samples = rng.integers(0, 32, size=(100_000, 7))
        benchmark(lambda: row_plurality(samples, 32, rng))


class TestAuxiliaryEngines:
    def test_population_protocol_n500(self, benchmark, rng):
        from repro import PopulationProcess, UndecidedPopulation

        counts = Configuration.two_color(500, bias=200).counts
        proc = PopulationProcess(UndecidedPopulation())
        benchmark.pedantic(lambda: proc.run(counts, rng=rng), rounds=1, iterations=3)

    def test_mean_field_integration(self, benchmark):
        import numpy as np

        from repro.analysis import integrate_mean_field

        benchmark.pedantic(
            lambda: integrate_mean_field(
                ThreeMajority(), np.array([0.4, 0.35, 0.25]), t_max=40.0
            ),
            rounds=1,
            iterations=3,
        )

    def test_exact_markov_chain_n8_k3(self, benchmark):
        from repro.analysis import analyze

        benchmark.pedantic(lambda: analyze(ThreeMajority(), 8, 3), rounds=1, iterations=1)

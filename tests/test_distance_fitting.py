"""Tests for trajectory analysis (distance.py) and scaling fits (fitting.py)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Configuration
from repro.analysis.distance import (
    PHASE_DONE,
    PHASE_LAST_STEP,
    PHASE_MAJORITY,
    PHASE_PLURALITY,
    classify_phase,
    phase_segments,
    total_variation,
)
from repro.analysis.fitting import (
    bootstrap_ci,
    linear_fit_through_predictor,
    power_law_fit,
    wilson_interval,
)
from repro.core.metrics import BiasMetric


class TestDistances:
    def test_md_extremes(self):
        assert Configuration([10, 0, 0]).monochromatic_distance() == pytest.approx(1.0)
        assert Configuration([4, 4, 4]).monochromatic_distance() == pytest.approx(3.0)

    def test_md_rejects_empty(self):
        with pytest.raises(ValueError):
            Configuration([0, 0]).monochromatic_distance()

    def test_tv_identical(self):
        assert total_variation(np.array([3, 2]), np.array([6, 4])) == pytest.approx(0.0)

    def test_tv_disjoint(self):
        assert total_variation(np.array([5, 0]), np.array([0, 5])) == pytest.approx(1.0)

    def test_tv_rejects_mismatched(self):
        with pytest.raises(ValueError):
            total_variation(np.array([1, 1]), np.array([1, 1, 1]))

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6).filter(
            lambda xs: sum(xs) > 0
        )
    )
    def test_tv_bounds(self, counts):
        a = np.array(counts)
        b = np.roll(a, 1)
        if b.sum() == 0:
            return
        tv = total_variation(a, b)
        assert 0.0 <= tv <= 1.0


class TestBiasSeries:
    def test_matches_configuration_bias(self):
        traj = np.array([[5, 3, 2], [8, 1, 1], [10, 0, 0]])
        biases = BiasMetric().compute_many(traj, 10)
        assert biases.tolist() == [2, 7, 10]
        assert biases.tolist() == [Configuration(row).bias for row in traj]

    def test_single_color(self):
        assert BiasMetric().compute_many(np.array([[5], [5]]), 5).tolist() == [5, 5]

    def test_rejects_1d(self):
        # The batch path needs (rounds, k); one configuration goes to compute.
        with pytest.raises(IndexError):
            BiasMetric().compute_many(np.array([1, 2, 3]), 6)
        assert BiasMetric().compute(np.array([1, 2, 3]), 6) == 1


class TestPhases:
    def test_classification(self):
        n = 10_000
        assert classify_phase(np.array([n, 0])) == PHASE_DONE
        assert classify_phase(np.array([n // 2, n // 2])) == PHASE_PLURALITY
        assert classify_phase(np.array([3 * n // 4, n // 4])) == PHASE_MAJORITY
        assert classify_phase(np.array([n - 3, 3])) == PHASE_LAST_STEP

    def test_classify_rejects_empty(self):
        with pytest.raises(ValueError):
            classify_phase(np.array([0, 0]))

    def test_segments_ordered_and_cover(self):
        n = 9_000
        traj = np.array(
            [
                [n // 3, n // 3, n // 3],
                [n // 2, n // 4, n // 4],
                [3 * n // 4, n // 8, n // 8],
                [n - 2, 1, 1],
                [n, 0, 0],
            ]
        )
        segs = phase_segments(traj)
        assert [s.phase for s in segs] == [
            PHASE_PLURALITY,
            PHASE_MAJORITY,
            PHASE_LAST_STEP,
            PHASE_DONE,
        ]
        assert sum(s.length for s in segs) == traj.shape[0]
        assert segs[0].start_round == 0
        assert segs[-1].end_round == 4

    def test_segments_merge_consecutive(self):
        traj = np.array([[5, 5], [5, 5], [6, 4]])
        segs = phase_segments(traj)
        assert len(segs) == 1
        assert segs[0].length == 3

    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError):
            phase_segments(np.zeros((0, 2)))


class TestPowerLawFit:
    def test_recovers_exact_exponent(self):
        x = np.array([1, 2, 4, 8, 16], dtype=float)
        y = 3.0 * x**2
        fit = power_law_fit(x, y)
        assert fit.exponent == pytest.approx(2.0)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_recovery(self, rng):
        x = np.logspace(0, 3, 20)
        y = 5 * x**1.5 * np.exp(rng.normal(0, 0.05, 20))
        fit = power_law_fit(x, y)
        lo, hi = fit.exponent_ci()
        assert lo < 1.5 < hi

    def test_predict(self):
        fit = power_law_fit(np.array([1.0, 2, 4]), np.array([2.0, 4, 8]))
        assert fit.predict(np.array([8.0]))[0] == pytest.approx(16.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_law_fit(np.array([1.0, 2, 3]), np.array([1.0, -2, 3]))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            power_law_fit(np.array([1.0, 2]), np.array([1.0, 2]))


class TestLinearFit:
    def test_exact(self):
        p = np.array([1.0, 2, 3])
        fit = linear_fit_through_predictor(p, 4 * p)
        assert fit.coefficient == pytest.approx(4.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_rejects_zero_predictor(self):
        with pytest.raises(ValueError):
            linear_fit_through_predictor(np.zeros(3), np.ones(3))

    def test_predict(self):
        fit = linear_fit_through_predictor(np.array([1.0, 2]), np.array([3.0, 6]))
        assert fit.predict(np.array([10.0]))[0] == pytest.approx(30.0)


class TestIntervalEstimates:
    def test_bootstrap_contains_truth(self, rng):
        data = rng.normal(10, 1, size=400)
        lo, hi = bootstrap_ci(data, statistic=np.mean, rng=rng)
        assert lo < 10.2 and hi > 9.8
        assert lo < hi

    def test_bootstrap_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))

    def test_wilson_basic(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_wilson_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        lo2, hi2 = wilson_interval(50, 50)
        assert hi2 == 1.0

    def test_wilson_rejects_bad(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
    def test_wilson_property(self, s, t):
        if s > t:
            return
        lo, hi = wilson_interval(s, t)
        assert 0.0 <= lo <= s / t <= hi <= 1.0

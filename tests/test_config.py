"""Unit and property tests for :class:`repro.core.config.Configuration`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Configuration
from repro.core.metrics import METRICS


class TestConstruction:
    def test_basic_counts(self):
        cfg = Configuration([3, 2, 1])
        assert cfg.n == 6
        assert cfg.k == 3
        assert list(cfg) == [3, 2, 1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            Configuration([3, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one color"):
            Configuration([])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Configuration(np.zeros((2, 2)))

    def test_rejects_non_integer_floats(self):
        with pytest.raises(ValueError, match="integers"):
            Configuration([1.5, 2.5])

    def test_accepts_integral_floats(self):
        cfg = Configuration([1.0, 2.0])
        assert cfg.n == 3

    def test_counts_are_read_only(self):
        cfg = Configuration([3, 2, 1])
        with pytest.raises(ValueError):
            cfg.counts[0] = 99

    def test_input_not_aliased(self):
        raw = np.array([3, 2, 1])
        cfg = Configuration(raw)
        raw[0] = 99
        assert cfg[0] == 3


class TestDerivedQuantities:
    def test_plurality(self):
        cfg = Configuration([2, 5, 3])
        assert cfg.plurality_color == 1
        assert cfg.plurality_count == 5
        assert cfg.runner_up_count == 3
        assert cfg.bias == 2

    def test_bias_with_tied_plurality(self):
        cfg = Configuration([4, 4, 2])
        assert cfg.bias == 0
        assert cfg.plurality_count == cfg.runner_up_count

    def test_unique_plurality(self):
        cfg = Configuration([5, 4, 1])
        assert cfg.plurality_count > cfg.runner_up_count
        assert cfg.bias == 1

    def test_single_color_runner_up(self):
        cfg = Configuration([7])
        assert cfg.runner_up_count == 0
        assert cfg.bias == 7

    def test_monochromatic(self):
        mono = Configuration.monochromatic(9, 3, color=1)
        assert mono.counts.tolist() == [0, 9, 0]
        assert mono.plurality_count == mono.n
        split = Configuration([1, 8, 0])
        assert split.plurality_count < split.n

    def test_minority_mass(self):
        cfg = Configuration([6, 3, 1])
        assert cfg.n - cfg.plurality_count == 4

    def test_support_size(self):
        cfg = Configuration([3, 0, 1, 0])
        assert METRICS.build("support-size").compute_many(cfg.counts[None, :], cfg.n).tolist() == [2]

    def test_fractions_sum_to_one(self):
        f = Configuration([1, 2, 3]).fractions()
        assert f.sum() == pytest.approx(1.0)

    def test_sum_of_squares(self):
        # md(c) = sum_i c_i^2 / c_max^2, so sum_i c_i^2 = 14 gives 14/9.
        assert Configuration([3, 2, 1]).monochromatic_distance() == pytest.approx(14 / 9)

    def test_monochromatic_distance_extremes(self):
        assert Configuration([9, 0, 0]).monochromatic_distance() == pytest.approx(1.0)
        assert Configuration([3, 3, 3]).monochromatic_distance() == pytest.approx(3.0)

    def test_sorted_counts(self):
        assert Configuration([1, 5, 3]).sorted_counts().tolist() == [5, 3, 1]


class TestFactories:
    def test_monochromatic_factory(self):
        cfg = Configuration.monochromatic(10, 4, color=2)
        assert cfg.counts.tolist() == [0, 0, 10, 0]

    def test_monochromatic_rejects_bad_color(self):
        with pytest.raises(ValueError):
            Configuration.monochromatic(10, 4, color=4)

    def test_balanced_even(self):
        assert Configuration.balanced(12, 4).counts.tolist() == [3, 3, 3, 3]

    def test_balanced_remainder(self):
        cfg = Configuration.balanced(14, 4)
        assert cfg.counts.tolist() == [4, 4, 3, 3]
        assert cfg.n == 14

    def test_biased_exact_bias(self):
        for n, k, s in [(100, 4, 10), (101, 3, 7), (57, 5, 1)]:
            cfg = Configuration.biased(n, k, s)
            assert cfg.n == n
            assert cfg.bias == s, (n, k, s, cfg.counts)
            assert cfg.plurality_color == 0

    def test_biased_custom_plurality(self):
        cfg = Configuration.biased(100, 4, 8, plurality=2)
        assert cfg.plurality_color == 2
        assert cfg.bias == 8

    def test_biased_rejects_bad_bias(self):
        with pytest.raises(ValueError):
            Configuration.biased(10, 3, 11)

    def test_biased_equals_the_rival_loop(self):
        # The reference is the loop biased() used to run: rivals take
        # x = ceil((n - s)/k) each, in order, until the rest runs out, and
        # fill every slot but the plurality's.
        def looped(n, k, bias, plurality):
            if k == 1:
                return [n]
            x = -((-(n - bias)) // k)
            c1 = min(x + bias, n)
            rest = n - c1
            rivals = np.zeros(k - 1, dtype=np.int64)
            for i in range(k - 1):
                take = min(x, rest)
                rivals[i] = take
                rest -= take
            counts = np.empty(k, dtype=np.int64)
            counts[plurality] = c1
            counts[[j for j in range(k) if j != plurality]] = rivals
            return counts.tolist()

        for n in (0, 1, 2, 3, 7, 10, 31, 100, 1001):
            for k in (1, 2, 3, 4, 7, 16, 50):  # k > n for the small n
                for bias in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                    if not 0 <= bias <= n:
                        continue
                    for plurality in sorted({0, k // 2, k - 1}):
                        counts = Configuration.biased(n, k, bias, plurality).counts
                        assert counts.dtype == np.int64
                        assert counts.tolist() == looped(n, k, bias, plurality), (
                            n, k, bias, plurality
                        )

    def test_two_color_by_bias(self):
        cfg = Configuration.two_color(100, bias=20)
        assert cfg.counts.tolist() == [60, 40]

    def test_two_color_odd_bias_rounds_up(self):
        cfg = Configuration.two_color(100, bias=19)
        assert cfg.n == 100
        assert cfg.bias == 20

    def test_two_color_by_fraction(self):
        assert Configuration.two_color(100, majority_fraction=0.7).counts.tolist() == [70, 30]

    def test_from_fractions(self):
        cfg = Configuration.from_fractions(10, [0.5, 0.3, 0.2])
        assert cfg.n == 10
        assert cfg.counts.tolist() == [5, 3, 2]

    def test_from_fractions_rounding_conserves_mass(self):
        cfg = Configuration.from_fractions(7, [1, 1, 1])
        assert cfg.n == 7

    def test_from_fractions_rejects_zero(self):
        with pytest.raises(ValueError):
            Configuration.from_fractions(5, [0, 0])

    def test_random_factory(self, rng):
        cfg = Configuration.random(1000, 5, rng)
        assert cfg.n == 1000
        assert cfg.k == 5


class TestManipulation:
    def test_permuted(self):
        cfg = Configuration([5, 3, 1]).permuted([2, 0, 1])
        assert cfg.counts.tolist() == [1, 5, 3]

    def test_permuted_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Configuration([5, 3, 1]).permuted([0, 0, 1])

    def test_relabel_sorted(self):
        cfg = Configuration([1, 5, 3])
        assert cfg.permuted(np.argsort(-cfg.counts)).counts.tolist() == [5, 3, 1]

    def test_with_counts_checks_k(self):
        with pytest.raises(ValueError):
            Configuration([1, 2]).permuted([0, 1, 2])

    def test_equality_and_hash(self):
        a = Configuration([3, 2])
        b = Configuration([3, 2])
        c = Configuration([2, 3])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr_contains_summary(self):
        r = repr(Configuration([3, 2, 1]))
        assert "n=6" in r and "bias=1" in r


# -- property-based -----------------------------------------------------------

counts_strategy = st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=8).filter(
    lambda xs: sum(xs) > 0
)


@given(counts_strategy)
def test_bias_matches_sorted_definition(counts):
    cfg = Configuration(counts)
    ordered = sorted(counts, reverse=True)
    expected = ordered[0] - (ordered[1] if len(ordered) > 1 else 0)
    assert cfg.bias == expected


@given(counts_strategy)
def test_permutation_invariants(counts):
    cfg = Configuration(counts)
    perm = list(reversed(range(len(counts))))
    permuted = cfg.permuted(perm)
    assert permuted.n == cfg.n
    assert permuted.bias == cfg.bias
    assert int(np.dot(permuted.counts, permuted.counts)) == int(np.dot(cfg.counts, cfg.counts))
    assert sorted(permuted.counts.tolist()) == sorted(cfg.counts.tolist())


@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_biased_factory_properties(n, k, data):
    s = data.draw(st.integers(min_value=0, max_value=n - n // k))
    cfg = Configuration.biased(n, k, s)
    assert cfg.n == n
    assert cfg.k == k
    assert cfg.bias >= s  # never weaker than requested
    if (n - s) % k == 0:
        assert cfg.bias == s  # exact whenever the rivals split evenly


@given(counts_strategy)
def test_monochromatic_distance_bounds(counts):
    cfg = Configuration(counts)
    md = cfg.monochromatic_distance()
    assert 1.0 <= md <= cfg.k + 1e-9

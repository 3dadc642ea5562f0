"""Tests for the vectorized sampling kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Configuration
from repro.core.samplers import (
    batched_agent_step,
    multinomial_step_batch,
    row_counts_dense,
    row_plurality,
)


def multinomial_row(n: int, pvals, rng) -> np.ndarray:
    """One configuration's update: the one-row :func:`multinomial_step_batch`."""
    return multinomial_step_batch(np.array([n]), np.asarray(pvals)[None, :], rng)[0]


def agent_samples(counts, h: int, rng) -> np.ndarray:
    """The ``(n, h)`` color samples one agent-engine round draws from ``counts``.

    :func:`batched_agent_step` hands each replica chunk's samples to the
    rule; this rule keeps them (and adopts the first).
    """
    blocks = []
    batched_agent_step(
        np.asarray(counts)[None, :], h, rng, lambda seen, r: blocks.append(seen) or seen[:, 0]
    )
    return blocks[0]


class TestMultinomialStep:
    def test_conserves_mass(self, rng):
        out = multinomial_row(1000, np.array([0.5, 0.3, 0.2]), rng)
        assert out.sum() == 1000
        assert out.dtype == np.int64

    def test_rejects_bad_pvals(self, rng):
        with pytest.raises(ValueError, match="probability"):
            multinomial_row(10, np.array([0.5, 0.6]), rng)

    def test_tolerates_tiny_roundoff(self, rng):
        p = np.array([1 / 3, 1 / 3, 1 / 3])
        out = multinomial_row(99, p, rng)
        assert out.sum() == 99

    def test_degenerate_law(self, rng):
        out = multinomial_row(50, np.array([0.0, 1.0]), rng)
        assert out.tolist() == [0, 50]

    def test_mean_matches_law(self, rng):
        p = np.array([0.7, 0.2, 0.1])
        draws = np.stack([multinomial_row(100, p, rng) for _ in range(2000)])
        assert np.allclose(draws.mean(axis=0) / 100, p, atol=0.01)


class TestMultinomialStepBatch:
    def test_scalar_total(self, rng):
        p = np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0]])
        out = multinomial_step_batch(100, p, rng)
        assert out.shape == (3, 2)
        assert (out.sum(axis=1) == 100).all()
        assert out[2].tolist() == [0, 100]

    def test_vector_totals(self, rng):
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = multinomial_step_batch(np.array([10, 20]), p, rng)
        assert out.sum(axis=1).tolist() == [10, 20]

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            multinomial_step_batch(10, np.array([0.5, 0.5]), rng)

    def test_rejects_bad_rows(self, rng):
        with pytest.raises(ValueError, match="probability"):
            multinomial_step_batch(10, np.array([[0.5, 0.2]]), rng)

    @pytest.mark.parametrize(
        "row", [[np.nan, 1.0], [np.inf, 0.0], [1.5, -0.5], [1.0 + 2e-9, 0.0]]
    )
    def test_rejects_non_finite_negative_and_off_by_more_than_1e9(self, rng, row):
        p = np.array([[0.5, 0.5], row])
        with pytest.raises(ValueError, match="probability"):
            multinomial_step_batch(10, p, rng)

    def test_clips_tiny_negative_entries(self, rng):
        p = np.array([[0.5, 0.5 + 1e-13, -1e-13], [0.2, 0.3, 0.5]])
        out = multinomial_step_batch(np.array([1_000, 7]), p, rng)
        assert out.dtype == np.int64
        assert out.sum(axis=1).tolist() == [1_000, 7]
        assert out[0, 2] == 0

    @pytest.mark.parametrize("negative", [False, True])
    def test_draws_the_clipped_renormalised_rows(self, negative):
        # The sampler hands NumPy exactly clip(p, 0) / row sums, so its
        # draws equal that reference call, with or without a clipped entry.
        p = np.random.default_rng(3).dirichlet(np.ones(6), size=9)
        if negative:
            p[4, 2] -= 5e-13
        totals = np.arange(1, 10) * 1_000
        clipped = np.clip(p, 0.0, None)
        reference = np.random.default_rng(11).multinomial(
            totals, clipped / clipped.sum(axis=1, keepdims=True)
        )
        out = multinomial_step_batch(totals, p, np.random.default_rng(11))
        np.testing.assert_array_equal(out, reference)


class TestCategoricalSample:
    """The agent engine's inverse-CDF categorical draws."""

    def test_range_and_shape(self, rng):
        out = agent_samples(np.array([5, 0, 5]), 10, rng)
        assert out.shape == (10, 10)
        assert set(np.unique(out)) <= {0, 2}

    def test_never_samples_zero_count_color(self, rng):
        out = agent_samples(np.array([0, 10, 0]), 100, rng)
        assert (out == 1).all()

    def test_frequencies(self, rng):
        counts = np.array([700, 200, 100])
        out = agent_samples(counts, 200, rng)
        freqs = np.bincount(out.ravel(), minlength=3) / 200_000
        assert np.allclose(freqs, counts / 1000, atol=0.01)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError, match="positive total"):
            agent_samples(np.array([0, 0]), 10, rng)

    def test_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            agent_samples(np.array([-1, 2]), 10, rng)

    def test_matrix_shape(self, rng):
        out = agent_samples(np.array([3, 4]), 3, rng)
        assert out.shape == (7, 3)

    def test_matrix_rejects_bad_h(self, rng):
        with pytest.raises(ValueError):
            agent_samples(np.array([1, 1]), 0, rng)


class TestRowCounts:
    def test_counts_match_manual(self):
        samples = np.array([[0, 0, 1], [2, 2, 2]])
        counts = row_counts_dense(samples, 3)
        assert counts.tolist() == [[2, 1, 0], [0, 0, 3]]

    def test_empty_rows(self):
        assert row_counts_dense(np.zeros((0, 3), dtype=np.int64), 4).shape == (0, 4)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            row_counts_dense(np.array([1, 2]), 3)


class TestRowPlurality:
    def test_clear_majorities(self, rng):
        samples = np.array([[0, 0, 1], [2, 1, 2], [1, 1, 1]])
        out = row_plurality(samples, 3, rng)
        assert out.tolist() == [0, 2, 1]

    def test_h1_identity(self, rng):
        samples = np.array([[2], [0], [1]])
        assert row_plurality(samples, 3, rng).tolist() == [2, 0, 1]

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            row_plurality(np.array([[0, 5]]), 3, rng)

    def test_tie_break_uniform(self, rng):
        # 3 distinct colors: each should win ~1/3 of the time.
        samples = np.tile(np.array([[0, 1, 2]]), (30_000, 1))
        out = row_plurality(samples, 3, rng)
        freqs = np.bincount(out, minlength=3) / 30_000
        assert np.allclose(freqs, 1 / 3, atol=0.02)

    def test_two_way_tie_uniform(self, rng):
        samples = np.tile(np.array([[0, 0, 1, 1]]), (30_000, 1))
        out = row_plurality(samples, 2, rng)
        freq0 = (out == 0).mean()
        assert abs(freq0 - 0.5) < 0.02

    def test_chunked_path_matches(self, rng_factory):
        # Force chunking by monkeypatching the block budget.
        import repro.core.samplers as smp

        samples = rng_factory(1).integers(0, 4, size=(101, 5))
        old = smp._DENSE_BLOCK_CELLS
        try:
            smp._DENSE_BLOCK_CELLS = 40  # chunk = 10 rows
            out_chunked = row_plurality(samples, 4, rng_factory(2))
        finally:
            smp._DENSE_BLOCK_CELLS = old
        out_whole = row_plurality(samples, 4, rng_factory(2))
        # Tie-broken rows may differ; rows with a unique plurality must agree.
        counts = row_counts_dense(samples, 4)
        top = counts.max(axis=1)
        unique = (counts == top[:, None]).sum(axis=1) == 1
        assert (out_chunked[unique] == out_whole[unique]).all()


# -- property-based -----------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6).filter(
        lambda xs: sum(xs) > 0
    ),
    st.integers(min_value=1, max_value=7),
)
def test_row_plurality_winner_always_present(counts, h):
    rng = np.random.default_rng(42)
    samples = agent_samples(np.array(counts), h, rng)
    winners = row_plurality(samples, len(counts), rng)
    # Each winner must occur in its own row (f(x) ∈ {x} requirement).
    present = (samples == winners[:, None]).any(axis=1)
    assert present.all()


@given(st.integers(min_value=1, max_value=300))
def test_multinomial_step_mass(total):
    rng = np.random.default_rng(7)
    out = multinomial_row(total, np.array([0.2, 0.3, 0.5]), rng)
    assert out.sum() == total
    assert (out >= 0).all()


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=12))
def test_top_two_matches_sort(counts):
    # The largest and second-largest counts, as Configuration reports them.
    arr = np.array(counts, dtype=np.int64)
    config = Configuration(arr)
    c1, c2 = config.plurality_count, config.runner_up_count
    ordered = np.sort(arr)[::-1]
    assert c1 == ordered[0]
    assert c2 == (ordered[1] if arr.size > 1 else 0)
    # and the input is left untouched
    assert (arr == np.array(counts)).all()

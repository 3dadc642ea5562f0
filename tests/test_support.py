"""Property tests for the active-support compaction substrate.

Two facts make the sparse ensemble engine exact rather than approximate,
and both are properties, not examples:

* **lossless round-trip** — ``scatter_counts(compact_counts(c)) == c``
  for any configuration batch, including the all-dead-but-one and
  full-support edges (the sparse engine's working set is compacted and
  scattered at every result boundary);

* **monotone support** — without an adversary, every built-in dynamics
  is support-closed: the union live support of an ensemble never gains a
  color from one round to the next.  This is the invariant that lets the
  sparse engine drop dead columns forever instead of tracking revivals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import (
    HPlurality,
    MedianDynamics,
    ThreeMajority,
    TwoChoices,
    TwoSampleUniform,
    Voter,
    majority_rule,
    majority_uniform_rule,
    min_rule,
    skewed_rule,
)
from repro.core.support import scatter_counts


def union_support(counts: np.ndarray) -> np.ndarray:
    """Sorted color indices with a nonzero count in any row, as the engine keeps them."""
    return np.flatnonzero(np.asarray(counts).reshape(-1, counts.shape[-1]).any(axis=0))


def compact_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The engine's compaction: the supported columns, as a fresh array."""
    support = union_support(counts)
    return np.ascontiguousarray(counts[..., support]), support

batches = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.integers(0, 50),
)


class TestRoundTrip:
    @given(batch=batches)
    def test_scatter_inverts_compact(self, batch):
        compacted, support = compact_counts(batch)
        assert list(support) == sorted(support)
        restored = scatter_counts(compacted, support, batch.shape[1])
        assert restored.dtype == batch.dtype
        assert np.array_equal(restored, batch)

    @given(row=hnp.arrays(np.int64, st.integers(1, 16), elements=st.integers(0, 9)))
    def test_single_row_round_trip(self, row):
        compacted, support = compact_counts(row)
        assert np.array_equal(scatter_counts(compacted, support, row.size), row)

    def test_all_dead_but_one(self):
        batch = np.zeros((4, 1000), dtype=np.int64)
        batch[:, 777] = 5
        compacted, support = compact_counts(batch)
        assert compacted.shape == (4, 1) and list(support) == [777]
        assert np.array_equal(scatter_counts(compacted, support, 1000), batch)

    def test_full_support(self):
        batch = np.arange(1, 13, dtype=np.int64).reshape(3, 4)
        compacted, support = compact_counts(batch)
        assert compacted.shape == batch.shape and list(support) == [0, 1, 2, 3]
        assert np.array_equal(scatter_counts(compacted, support, 4), batch)

    def test_all_zero(self):
        batch = np.zeros((2, 5), dtype=np.int64)
        compacted, support = compact_counts(batch)
        assert compacted.shape == (2, 0) and support.size == 0
        assert np.array_equal(scatter_counts(compacted, support, 5), batch)

    def test_union_support_is_union(self):
        batch = np.array([[1, 0, 0, 2], [0, 0, 3, 0]])
        assert list(union_support(batch)) == [0, 2, 3]

    def test_explicit_support_must_match_width(self):
        with pytest.raises(ValueError, match="does not match"):
            scatter_counts(np.ones((2, 3), dtype=np.int64), np.array([0, 1]), 5)

    def test_support_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            scatter_counts(np.ones((1, 1), dtype=np.int64), np.array([7]), 5)

    def test_compact_does_not_alias(self):
        batch = np.array([[1, 0, 2]])
        compacted, support = compact_counts(batch)
        compacted[0, 0] = 99
        assert batch[0, 0] == 1


def _dynamics_panel():
    return [
        ThreeMajority(),
        ThreeMajority(engine="agent"),
        ThreeMajority(engine="agent", tie_break="uniform"),
        HPlurality(2),
        HPlurality(4),
        HPlurality(4, engine="agent"),
        HPlurality(6),  # generating-function law, beyond the old h <= 5 tables
        TwoSampleUniform(),
        Voter(),
        TwoChoices(),
        MedianDynamics(),
        majority_rule(),
        majority_uniform_rule(),
        min_rule(),
        skewed_rule((1, 3, 2)),
    ]


class TestSupportMonotone:
    @settings(max_examples=15)
    @given(
        counts=hnp.arrays(np.int64, st.integers(2, 8), elements=st.integers(0, 30)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_union_support_never_grows(self, counts, seed):
        """Adversary-free stepping never revives a color, for every rule."""
        if counts.sum() == 0:
            counts[0] = 1
        rng = np.random.default_rng(seed)
        for dynamics in _dynamics_panel():
            batch = np.tile(counts, (3, 1))
            supported = set(union_support(batch))
            for _ in range(4):
                batch = dynamics.step_many(batch, rng)
                now = set(union_support(batch))
                assert now <= supported, (dynamics.name, supported, now)
                supported = now

    def test_support_closed_flags(self):
        for dynamics in _dynamics_panel():
            assert dynamics.support_closed, dynamics.name

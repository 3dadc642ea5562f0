"""Tests for the random-stream discipline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rng import derive_seed, make_rng, spawn_streams


class TestMakeRng:
    def test_from_int(self):
        a = make_rng(42)
        b = make_rng(42)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_passthrough_generator(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_from_none(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        assert isinstance(make_rng(ss), np.random.Generator)


class TestSpawnStreams:
    def test_reproducible(self):
        a = spawn_streams(5, 3)
        b = spawn_streams(5, 3)
        for ga, gb in zip(a, b):
            assert ga.integers(0, 10**9) == gb.integers(0, 10**9)

    def test_streams_differ(self):
        streams = spawn_streams(5, 4)
        draws = {int(g.integers(0, 10**12)) for g in streams}
        assert len(draws) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)

    def test_zero_streams(self):
        assert spawn_streams(0, 0) == []


class TestDeriveSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derive_seed(1, "exp", 3)).integers(0, 10**9)
        b = np.random.default_rng(derive_seed(1, "exp", 3)).integers(0, 10**9)
        assert a == b

    def test_distinct_paths_differ(self):
        a = np.random.default_rng(derive_seed(1, "exp", 3)).integers(0, 10**12)
        b = np.random.default_rng(derive_seed(1, "exp", 4)).integers(0, 10**12)
        c = np.random.default_rng(derive_seed(1, "other", 3)).integers(0, 10**12)
        assert len({int(a), int(b), int(c)}) == 3

    def test_none_root(self):
        ss = derive_seed(None, "x")
        assert isinstance(ss, np.random.SeedSequence)

    # -- regression: undelimited concatenation collided on all of these -----

    def test_split_string_path_differs_from_joined(self):
        assert derive_seed(1, "ab").entropy != derive_seed(1, "a", "b").entropy

    def test_string_differs_from_codepoint_int(self):
        assert derive_seed(1, "a").entropy != derive_seed(1, 97).entropy

    def test_negative_int_does_not_wrap(self):
        assert derive_seed(1, -1).entropy != derive_seed(1, 0xFFFFFFFF).entropy

    def test_boundary_shift_differs(self):
        assert derive_seed(0, "E1", 23).entropy != derive_seed(0, "E12", 3).entropy

    def test_rejects_unhashable_component_types(self):
        with pytest.raises(TypeError, match="int or str"):
            derive_seed(0, 1.5)

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.text(max_size=8),
            ),
            max_size=4,
        ),
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.text(max_size=8),
            ),
            max_size=4,
        ),
    )
    def test_distinct_paths_give_distinct_entropy(self, path_a, path_b):
        a = derive_seed(0, *path_a)
        b = derive_seed(0, *path_b)
        if tuple(path_a) == tuple(path_b):
            assert a.entropy == b.entropy
        else:
            assert a.entropy != b.entropy
            assert not np.array_equal(a.generate_state(4), b.generate_state(4))

"""Tests for the undecided-state dynamics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Configuration, UndecidedState, run_process


class TestStateHelpers:
    def test_extend_and_views(self):
        state = UndecidedState.extend_counts(np.array([3, 2]), undecided=5)
        assert state.tolist() == [3, 2, 5]
        assert state[:-1].tolist() == [3, 2]
        assert state[-1] == 5

    def test_extend_rejects_negative(self):
        with pytest.raises(ValueError):
            UndecidedState.extend_counts(np.array([1]), undecided=-1)


class TestTransitions:
    def test_class_matrix_rows_are_distributions(self):
        mat = UndecidedState().class_transition_matrix(np.array([3, 2, 5]))
        assert np.allclose(mat.sum(axis=1), 1.0)
        assert (mat >= 0).all()

    def test_class_matrix_hand_case(self):
        # state (c0, c1, q) = (4, 4, 2), n = 10.
        # Colored-0 survives w.p. (4 + 2)/10 = 0.6, else undecided.
        # Undecided adopts 0 w.p. 0.4, 1 w.p. 0.4, stays w.p. 0.2.
        mat = UndecidedState().class_transition_matrix(np.array([4, 4, 2]))
        assert mat[0, 0] == pytest.approx(0.6)
        assert mat[0, 2] == pytest.approx(0.4)
        assert mat[2].tolist() == pytest.approx([0.4, 0.4, 0.2])

    def test_step_conserves_mass(self, rng):
        state = np.array([30, 20, 10])
        out = UndecidedState().step(state, rng)
        assert out.sum() == 60
        assert out.size == 3

    def test_step_requires_state_vector(self, rng):
        with pytest.raises(ValueError):
            UndecidedState().step(np.array([5]), rng)

    def test_all_undecided_is_absorbing(self, rng):
        out = UndecidedState().step(np.array([0, 0, 25]), rng)
        assert out.tolist() == [0, 0, 25]

    def test_monochromatic_is_absorbing(self, rng):
        out = UndecidedState().step(np.array([25, 0, 0]), rng)
        assert out.tolist() == [25, 0, 0]

    def test_expected_undecided_creation(self, rng):
        # From (50, 50, 0): each colored agent goes undecided w.p. 1/2, so
        # E[new undecided] = 50.
        reps = 2000
        acc = 0
        dyn = UndecidedState()
        for _ in range(reps):
            acc += dyn.step(np.array([50, 50, 0]), rng)[-1]
        assert abs(acc / reps - 50) < 3 * np.sqrt(100 * 0.25 / reps) * 10

    @given(
        st.lists(st.integers(min_value=0, max_value=60), min_size=3, max_size=6).filter(
            lambda xs: sum(xs) > 0
        )
    )
    def test_mass_conservation_property(self, state):
        rng = np.random.default_rng(5)
        state = np.array(state)
        out = UndecidedState().step(state, rng)
        assert out.sum() == state.sum()
        assert (out >= 0).all()
        # extinct colors stay extinct unless revived by... nothing: colored
        # mass only shrinks per color, undecided can only adopt supported
        # colors.
        colored = state[:-1]
        assert (out[:-1][colored == 0] == 0).all()


class TestEndToEnd:
    def test_converges_with_bias(self, rng):
        cfg = Configuration.biased(5_000, 4, 800)
        res = run_process(UndecidedState(), cfg, rng=rng, max_rounds=10_000)
        assert res.converged
        assert res.plurality_won

    def test_process_runner_extends_state(self, rng):
        # run_process must accept plain k-color configurations.
        cfg = Configuration([900, 100])
        res = run_process(UndecidedState(), cfg, rng=rng, max_rounds=10_000)
        assert res.converged
        assert res.final_counts.size == 2  # colored slots only

    def test_fast_on_low_md_configuration(self, rng):
        # md(c) small => very fast even though absolute bias is small.
        counts = np.concatenate([[400, 380], np.ones(220, dtype=np.int64)])
        cfg = Configuration(counts)
        res = run_process(UndecidedState(), cfg, rng=rng, max_rounds=10_000)
        assert res.converged
        assert res.rounds < 200

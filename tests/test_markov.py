"""Exact Markov-chain cross-validation of every dynamics engine.

These are the strongest correctness tests in the suite: the exact chain
(built from each dynamics' closed-form laws) is compared against empirical
simulation frequencies, and against theory identities the paper relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Configuration,
    MedianDynamics,
    ThreeMajority,
    TwoChoices,
    UndecidedState,
    Voter,
    majority_rule,
    run_ensemble,
)
from repro.analysis.markov import analyze, enumerate_configurations, transition_matrix


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_configurations(4, 2)) == 5
        assert len(enumerate_configurations(5, 3)) == 21  # C(7,2)

    def test_all_sum_to_n(self):
        for state in enumerate_configurations(6, 3):
            assert sum(state) == 6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_configurations(-1, 2)
        with pytest.raises(ValueError):
            enumerate_configurations(3, 0)


class TestTransitionMatrices:
    @pytest.mark.parametrize(
        "dynamics",
        [ThreeMajority(), Voter(), MedianDynamics(), TwoChoices(), majority_rule()],
        ids=lambda d: d.name,
    )
    def test_rows_are_distributions(self, dynamics):
        P, states = transition_matrix(dynamics, 5, 3)
        assert P.shape == (len(states), len(states))
        assert np.allclose(P.sum(axis=1), 1.0)
        assert (P >= 0).all()

    def test_monochromatic_rows_are_absorbing(self):
        P, states = transition_matrix(ThreeMajority(), 5, 2)
        for i, s in enumerate(states):
            if max(s) == 5:
                assert P[i, i] == pytest.approx(1.0)

    def test_majority_rule_matches_three_majority(self):
        # The D3 majority member and the Lemma 1 engine must induce the
        # same chain.
        P1, _ = transition_matrix(ThreeMajority(), 5, 3)
        P2, _ = transition_matrix(majority_rule(), 5, 3)
        assert np.allclose(P1, P2, atol=1e-12)

    def test_undecided_state_chain(self):
        P, states = transition_matrix(UndecidedState(), 4, 3)
        assert np.allclose(P.sum(axis=1), 1.0)


class TestExactIdentities:
    def test_voter_win_probability_is_martingale(self):
        ma = analyze(Voter(), 6, 2)
        for c0 in range(1, 6):
            assert ma.win_probability((c0, 6 - c0), 0) == pytest.approx(c0 / 6)

    def test_three_majority_symmetry(self):
        ma = analyze(ThreeMajority(), 6, 2)
        p = ma.win_probability((3, 3), 0)
        assert p == pytest.approx(0.5)

    def test_color_permutation_equivariance(self):
        ma = analyze(ThreeMajority(), 6, 3)
        assert ma.win_probability((3, 2, 1), 0) == pytest.approx(
            ma.win_probability((1, 2, 3), 2)
        )

    def test_bias_monotonicity_of_win_probability(self):
        ma = analyze(ThreeMajority(), 8, 2)
        probs = [ma.win_probability((c0, 8 - c0), 0) for c0 in range(1, 8)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_median_beats_plurality_at_median_color(self):
        # The exact-chain version of Theorem 3's median counterexample.
        ma = analyze(MedianDynamics(), 5, 3)
        start = (2, 2, 1)  # plurality tied 0/1; median value is 1-ish
        # Clear case: (2,1,2): color 1 is the median though it is the minority.
        p_med = ma.win_probability((2, 1, 2), 1)
        p_0 = ma.win_probability((2, 1, 2), 0)
        assert p_med > p_0

    def test_expected_rounds_positive_from_transient(self):
        ma = analyze(ThreeMajority(), 5, 2)
        assert ma.expected_rounds((3, 2)) > 0
        assert ma.expected_rounds((5, 0)) == 0

    def test_win_probabilities_sum_to_one(self):
        ma = analyze(ThreeMajority(), 6, 3)
        total = sum(ma.win_probability((2, 2, 2), j) for j in range(3))
        # All-undecided style dead ends don't exist for 3-majority.
        assert total == pytest.approx(1.0)


class TestSimulatorAgreement:
    """Empirical frequencies must match the exact chain."""

    @pytest.mark.parametrize(
        "dynamics,start",
        [
            (ThreeMajority(), (4, 2)),
            (Voter(), (4, 2)),
            (MedianDynamics(), (3, 2, 1)),
            (TwoChoices(), (4, 2)),
            (UndecidedState(), (3, 2, 1)),  # 2 colors + the undecided slot
        ],
        ids=["3maj", "voter", "median", "2choices", "undecided"],
    )
    def test_one_round_distribution(self, dynamics, start, rng):
        k = len(start)
        n = sum(start)
        P, states = transition_matrix(dynamics, n, k)
        index = {s: i for i, s in enumerate(states)}
        row = P[index[start]]
        reps = 30_000
        hits = np.zeros(len(states))
        batch = np.tile(np.array(start), (reps, 1))
        out = dynamics.step_many(batch, rng)
        for outcome in out:
            hits[index[tuple(outcome)]] += 1
        freq = hits / reps
        # Chi-square-ish check: max deviation within 5 binomial stderrs.
        stderr = np.sqrt(np.maximum(row * (1 - row), 1e-12) / reps)
        assert np.max(np.abs(freq - row) / np.maximum(stderr, 1e-9)) < 6.0

    def test_absorption_probability_vs_ensemble(self, rng):
        ma = analyze(ThreeMajority(), 8, 2)
        exact = ma.win_probability((5, 3), 0)
        ens = run_ensemble(ThreeMajority(), Configuration([5, 3]), 4_000, max_rounds=10_000, rng=rng)
        assert ens.convergence_rate == 1.0
        stderr = np.sqrt(exact * (1 - exact) / 4_000)
        assert abs(ens.plurality_win_rate - exact) < 5 * stderr

    def test_expected_rounds_vs_ensemble(self, rng):
        ma = analyze(ThreeMajority(), 8, 2)
        exact = ma.expected_rounds((4, 4))
        ens = run_ensemble(ThreeMajority(), Configuration([4, 4]), 4_000, max_rounds=10_000, rng=rng)
        mean = float(ens.rounds[ens.converged].mean())
        assert abs(mean - exact) / exact < 0.1

    def test_undecided_absorption_vs_ensemble(self, rng):
        ma = analyze(UndecidedState(), 6, 3)  # 2 colors + undecided
        exact = ma.win_probability((4, 2, 0), 0)
        ens = run_ensemble(
            UndecidedState(), Configuration([4, 2]), 4_000, max_rounds=10_000, rng=rng
        )
        # The undecided chain can also absorb at all-undecided; winners == 0
        # measures color-0 consensus only.
        rate = float(((ens.winners == 0) & ens.converged).mean())
        stderr = np.sqrt(exact * (1 - exact) / 4_000)
        assert abs(rate - exact) < 6 * stderr

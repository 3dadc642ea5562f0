"""Cross-dynamics invariants: one property suite over the whole zoo.

These are the laws every implementation must satisfy regardless of its
engine (counts-level exact vs agent-level), and the symmetry facts the
paper's arguments lean on:

* mass conservation and non-negativity of every step;
* monochromatic configurations are absorbing for every dynamics
  (the paper notes this for all h-dynamics in Definition 5's discussion);
* stateless rules never resurrect extinct colors;
* color-permutation equivariance for the *anonymous symmetric* rules
  (3-majority, h-plurality, voter, two-choices, undecided-state) — and
  its deliberate failure for the order-dependent rules (median, min/max),
  which is precisely why they break plurality consensus (Theorem 3).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    HPlurality,
    MedianDynamics,
    ThreeMajority,
    TwoChoices,
    TwoSampleUniform,
    UndecidedState,
    Voter,
    first_rule,
    majority_rule,
    max_rule,
    median_rule,
    min_rule,
    skewed_rule,
)

# Stateless dynamics operating on plain k-color count vectors.
STATELESS = [
    ThreeMajority(),
    ThreeMajority(engine="agent"),
    HPlurality(1),
    HPlurality(4),
    HPlurality(7),
    Voter(),
    TwoChoices(),
    TwoSampleUniform(),
    MedianDynamics(),
    majority_rule(),
    median_rule(),
    min_rule(),
    max_rule(),
    first_rule(),
    skewed_rule(),
]

IDS = [d.name + ("/agent" if d.engine == "agent" else "") for d in STATELESS]

counts_strategy = st.lists(st.integers(min_value=0, max_value=80), min_size=2, max_size=6).filter(
    lambda xs: sum(xs) > 0
)


@pytest.mark.parametrize("dynamics", STATELESS, ids=IDS)
class TestUniversalInvariants:
    @settings(max_examples=20)
    @given(counts=counts_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_mass_and_nonnegativity(self, dynamics, counts, seed):
        rng = np.random.default_rng(seed)
        c = np.array(counts)
        out = dynamics.step(c, rng)
        assert out.sum() == c.sum()
        assert (out >= 0).all()

    def test_monochromatic_absorbing(self, dynamics, rng):
        c = np.array([0, 37, 0, 0])
        out = dynamics.step(c, rng)
        assert out.tolist() == c.tolist()

    @settings(max_examples=15)
    @given(counts=counts_strategy, seed=st.integers(min_value=0, max_value=2**31))
    def test_no_resurrection(self, dynamics, counts, seed):
        rng = np.random.default_rng(seed)
        c = np.array(counts)
        out = dynamics.step(c, rng)
        assert (out[c == 0] == 0).all()


SYMMETRIC_WITH_LAW = [ThreeMajority(), Voter(), TwoSampleUniform(), TwoChoices()]


@pytest.mark.parametrize("dynamics", SYMMETRIC_WITH_LAW, ids=lambda d: d.name)
class TestPermutationEquivariance:
    @settings(max_examples=20)
    @given(counts=counts_strategy)
    def test_law_equivariant(self, dynamics, counts):
        c = np.array(counts)
        perm = np.arange(c.size)[::-1].copy()
        law = dynamics.color_law(c)
        law_perm = dynamics.color_law(c[perm])
        assert np.allclose(law_perm, law[perm], atol=1e-12)


class TestOrderDependence:
    """Median/min/max are *not* color-equivariant — the Theorem 3 story."""

    def test_median_law_breaks_under_permutation(self):
        # NB: the median IS equivariant under order *reversal* (the median
        # of a reversed order is unchanged), so use a transposition that
        # changes which color sits in the middle of the value order.
        c = np.array([50, 30, 20])
        perm = np.array([1, 0, 2])
        law = MedianDynamics().color_law(c)
        law_perm = MedianDynamics().color_law(c[perm])
        assert not np.allclose(law_perm, law[perm])

    def test_min_rule_breaks_under_permutation(self):
        c = np.array([40, 35, 25])
        perm = np.array([2, 1, 0])
        law = min_rule().color_law(c)
        law_perm = min_rule().color_law(c[perm])
        assert not np.allclose(law_perm, law[perm])

    def test_three_majority_is_equivariant_on_same_input(self):
        c = np.array([40, 35, 25])
        perm = np.array([2, 0, 1])
        law = ThreeMajority().color_law(c)
        assert np.allclose(ThreeMajority().color_law(c[perm]), law[perm])


class TestUndecidedInvariants:
    @settings(max_examples=20)
    @given(
        state=st.lists(st.integers(min_value=0, max_value=60), min_size=3, max_size=6).filter(
            lambda xs: sum(xs) > 0
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_mass_and_support(self, state, seed):
        rng = np.random.default_rng(seed)
        s = np.array(state)
        out = UndecidedState().step(s, rng)
        assert out.sum() == s.sum()
        assert (out >= 0).all()
        assert (out[:-1][s[:-1] == 0] == 0).all()

    def test_color_permutation_equivariance(self, rng_factory):
        # Permuting the *color* slots (not the undecided slot) commutes
        # with the transition law.
        s = np.array([20, 30, 10, 5])  # 3 colors + undecided
        perm = np.array([2, 0, 1])
        dyn = UndecidedState()
        mat = dyn.class_transition_matrix(s)
        s_perm = np.concatenate([s[:-1][perm], s[-1:]])
        mat_perm = dyn.class_transition_matrix(s_perm)
        full_perm = np.concatenate([perm, [3]])
        assert np.allclose(mat_perm, mat[np.ix_(full_perm, full_perm)])


class TestBiasedConfigurationsDriftCorrectly:
    """End-to-end sanity across the zoo: with overwhelming bias, every
    *plurality-respecting* rule wins, and each deviant rule loses in its
    own predicted direction."""

    @pytest.mark.parametrize(
        "dynamics,expected_winner",
        [
            (ThreeMajority(), 1),
            (HPlurality(5), 1),
            (TwoChoices(), 1),
            (majority_rule(), 1),
            (min_rule(), 0),  # attracted to the lowest index
            (max_rule(), 2),  # attracted to the highest index
        ],
        ids=["3maj", "5plur", "2choices", "d3-majority", "min", "max"],
    )
    def test_winner_direction(self, dynamics, expected_winner):
        from repro import Configuration, run_process

        cfg = Configuration([1_500, 7_000, 1_500])
        res = run_process(dynamics, cfg, rng=3, max_rounds=20_000)
        assert res.converged
        assert res.winner == expected_winner, dynamics.name

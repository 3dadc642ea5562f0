"""Tests for 3-majority and h-plurality (Lemma 1 law, engines, tie-breaks)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Configuration, HPlurality, ThreeMajority, TwoSampleUniform
from repro.core.majority import three_majority_law

counts_strategy = st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=8).filter(
    lambda xs: sum(xs) > 0
)


class TestThreeMajorityLaw:
    def test_formula_hand_computed(self):
        # c = (2, 1), n = 3: p_0 = (2/27)(9 + 6 - 5) = 20/27.
        law = three_majority_law(np.array([2, 1]))
        assert law[0] == pytest.approx(20 / 27)
        assert law[1] == pytest.approx(7 / 27)

    def test_brute_force_enumeration(self):
        # Compare against exhaustive enumeration of all n^3 ordered triples.
        counts = np.array([3, 2, 1])
        n = counts.sum()
        colors = np.repeat(np.arange(3), counts)
        freq = np.zeros(3)
        for a in colors:
            for b in colors:
                for c in colors:
                    if a == b or a == c:
                        freq[a] += 1
                    elif b == c:
                        freq[b] += 1
                    else:
                        freq[a] += 1  # 'first' tie-break
        freq /= n**3
        assert np.allclose(three_majority_law(counts), freq)

    def test_tie_break_marginal_equivalence_brute_force(self):
        # Uniform tie-break gives the same marginal: each distinct triple
        # contributes 1/3 to each of its colors, and by symmetry over the
        # 6 orderings that equals always picking the first.
        counts = np.array([4, 2, 2])
        n = counts.sum()
        colors = np.repeat(np.arange(3), counts)
        freq = np.zeros(3)
        for a in colors:
            for b in colors:
                for c in colors:
                    if a == b or a == c:
                        freq[a] += 1
                    elif b == c:
                        freq[b] += 1
                    else:
                        freq[a] += 1 / 3
                        freq[b] += 1 / 3
                        freq[c] += 1 / 3
        freq /= n**3
        assert np.allclose(three_majority_law(counts), freq)

    def test_law_is_probability_vector(self):
        law = three_majority_law(np.array([10, 5, 3, 1]))
        assert law.sum() == pytest.approx(1.0)
        assert (law >= 0).all()

    def test_monochromatic_fixed_point(self):
        law = three_majority_law(np.array([0, 7, 0]))
        assert law == pytest.approx([0.0, 1.0, 0.0])

    def test_batched_law(self):
        batch = np.array([[5, 5], [8, 2]])
        laws = three_majority_law(batch)
        assert laws.shape == (2, 2)
        assert np.allclose(laws.sum(axis=1), 1.0)
        assert np.allclose(laws[0], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            three_majority_law(np.array([0, 0]))

    @given(counts_strategy)
    def test_law_properties(self, counts):
        law = three_majority_law(np.array(counts))
        assert law.sum() == pytest.approx(1.0)
        assert (law >= -1e-12).all()
        # Extinct colors stay extinct (no spontaneous generation).
        for j, c in enumerate(counts):
            if c == 0:
                assert law[j] == 0.0


class TestThreeMajorityDynamics:
    def test_step_conserves_mass(self, rng):
        out = ThreeMajority().step(np.array([50, 30, 20]), rng)
        assert out.sum() == 100

    def test_step_many_shape(self, rng):
        batch = np.tile(np.array([60, 40]), (5, 1))
        out = ThreeMajority().step_many(batch, rng)
        assert out.shape == (5, 2)
        assert (out.sum(axis=1) == 100).all()

    def test_monochromatic_absorbing(self, rng):
        out = ThreeMajority().step(np.array([0, 100]), rng)
        assert out.tolist() == [0, 100]

    def test_empty_configuration_passthrough(self, rng):
        out = ThreeMajority().step(np.array([0, 0]), rng)
        assert out.tolist() == [0, 0]

    def test_agent_level_matches_exact_mean(self, rng):
        counts = np.array([500, 300, 200])
        exact_mu = three_majority_law(counts) * 1000
        acc = np.zeros(3)
        reps = 400
        dyn = ThreeMajority(engine="agent")
        for _ in range(reps):
            acc += dyn.step(counts, rng)
        mean = acc / reps
        stderr = np.sqrt(1000 * 0.25 / reps)
        assert np.all(np.abs(mean - exact_mu) < 6 * stderr)

    def test_agent_level_uniform_tiebreak_matches_mean(self, rng):
        counts = np.array([400, 350, 250])
        exact_mu = three_majority_law(counts) * 1000
        dyn = ThreeMajority(engine="agent", tie_break="uniform")
        acc = np.zeros(3)
        reps = 400
        for _ in range(reps):
            acc += dyn.step(counts, rng)
        mean = acc / reps
        stderr = np.sqrt(1000 * 0.25 / reps)
        assert np.all(np.abs(mean - exact_mu) < 6 * stderr)

    def test_rejects_bad_tie_break(self):
        with pytest.raises(ValueError):
            ThreeMajority(tie_break="nope")

    def test_supports_exact_law(self):
        law = ThreeMajority().color_law(np.array([5, 3, 2, 0]))
        assert law.sum() == pytest.approx(1.0)
        assert (law >= 0).all() and law[3] == 0.0


class TestHPlurality:
    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            HPlurality(0)

    def test_name_includes_h(self):
        assert HPlurality(5).name == "5-plurality"

    def test_h1_is_voter_law(self):
        law = HPlurality(1).color_law(np.array([6, 4]))
        assert np.allclose(law, [0.6, 0.4])

    def test_h3_law_is_three_majority(self):
        counts = np.array([5, 3, 2])
        assert np.allclose(HPlurality(3).color_law(counts), three_majority_law(counts))

    def test_no_law_for_general_h(self, reference_law):
        # h = 6 had no law when the composition tables stopped at h = 5;
        # the generating-function law covers it and equals the enumeration.
        for counts in ([5, 5], [5, 3, 2], [4, 3, 2, 1]):
            law = HPlurality(6).color_law(np.array(counts))
            np.testing.assert_allclose(
                law, reference_law(HPlurality(6), counts), rtol=0, atol=1e-12
            )

    def test_h5_law_is_distribution(self):
        law = HPlurality(5).color_law(np.array([5, 3, 2]))
        assert law.sum() == pytest.approx(1.0)
        assert (law >= 0).all()

    def test_counts_table_cap_overrides_auto_fallback(self):
        # There is no table, so no cap and no fallback: auto is the exact
        # counts engine at h = 5, k = 64 (~10M compositions) and beyond.
        for h, k in ((5, 64), (5, 8), (3, 100), (16, 64)):
            assert HPlurality(h).resolved_engine(k) == "counts", (h, k)
        with pytest.raises(TypeError):
            HPlurality(5, counts_table_cap=10)

    def test_counts_table_cap_validated_and_spec_reachable(self):
        # counts_table_cap is gone: a spec that still names it is rejected
        # when it resolves, naming the parameters h-plurality accepts.
        from repro import ScenarioSpec

        spec = ScenarioSpec(
            dynamics="h-plurality",
            dynamics_params={"h": 4, "counts_table_cap": 10},
            n=1_000,
            k=6,
        )
        with pytest.raises(ValueError, match="counts_table_cap.*accepted: h, engine"):
            spec.resolve()

    def test_step_conserves_mass(self, rng):
        for h in (1, 2, 3, 5, 9):
            out = HPlurality(h).step(np.array([40, 35, 25]), rng)
            assert out.sum() == 100, h

    def test_h3_step_matches_exact_law_mean(self, rng):
        counts = np.array([500, 300, 200])
        mu = three_majority_law(counts) * 1000
        acc = np.zeros(3)
        reps = 400
        dyn = HPlurality(3)
        for _ in range(reps):
            acc += dyn.step(counts, rng)
        stderr = np.sqrt(1000 * 0.25 / reps)
        assert np.all(np.abs(acc / reps - mu) < 6 * stderr)

    def test_large_h_amplifies_majority(self, rng):
        # With h = 25 on a 60/40 split, P(sample majority = 0) =
        # P(Binom(25, 0.6) >= 13) ≈ 0.85 — well above the input fraction.
        counts = np.array([6000, 4000])
        out = HPlurality(25).step(counts, rng)
        assert out[0] > 8000

    def test_monochromatic_absorbing(self, rng):
        out = HPlurality(7).step(np.array([0, 50, 0]), rng)
        assert out.tolist() == [0, 50, 0]


class TestTwoSampleUniform:
    def test_law_is_voter(self):
        law = TwoSampleUniform().color_law(np.array([3, 7]))
        assert np.allclose(law, [0.3, 0.7])

    def test_batch_law(self):
        laws = TwoSampleUniform().color_law(np.array([[3, 7], [5, 5]]))
        assert np.allclose(laws, [[0.3, 0.7], [0.5, 0.5]])

    def test_no_drift_two_color(self, rng):
        # E[next c0] = c0 exactly: the martingale that makes 2 samples fail.
        counts = np.array([700, 300])
        reps = 3000
        batch = np.tile(counts, (reps, 1))
        out = TwoSampleUniform().step_many(batch, rng)
        assert abs(out[:, 0].mean() - 700) < 3 * np.sqrt(1000 * 0.21 / reps) * 10


@settings(max_examples=25)
@given(counts_strategy, st.integers(min_value=1, max_value=6))
def test_hplurality_extinct_colors_stay_extinct(counts, h):
    rng = np.random.default_rng(11)
    counts = np.array(counts)
    out = HPlurality(h).step(counts, rng)
    assert out.sum() == counts.sum()
    assert (out[counts == 0] == 0).all()

"""Cross-validation of the exact counts-level engines against agent-level stepping.

Two layers of evidence that the closed-form laws are the true per-agent
marginals:

* **exactness** — the O(k) pattern-decomposed :meth:`ThreeInputRule.color_law`
  must match the brute-force O(k³) sum over all ordered triples
  (:func:`_triple_law`, through the rule's own ``apply``) to
  floating-point precision, and the h-plurality generating-function law
  must reproduce Lemma 1 exactly at ``h = 3`` and the voter law at
  ``h ∈ {1, 2}`` (``tests/test_reference_laws.py`` checks it against an
  enumeration at every small ``h``);

* **statistics** — aggregated agent-level steps must be consistent with the
  law under a chi-square goodness-of-fit test and a total-variation
  tolerance, for 3-majority, median, min/max, skewed and uniform-distinct
  rules across k ∈ {2, 3, 5, 8}, and for h-plurality with h ∈ {2, 4, 5, 7, 9}.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro import (
    BalancingAdversary,
    Configuration,
    HPlurality,
    RandomAdversary,
    ReviveAdversary,
    TargetedAdversary,
    ThreeInputRule,
    ThreeMajority,
    majority_rule,
    majority_uniform_rule,
    max_rule,
    median_rule,
    min_rule,
    run_ensemble,
    skewed_rule,
    three_majority_law,
)
from repro.core.majority import plurality_law
from repro.core.threeinput import DISTINCT_PATTERNS, PAIR_PATTERNS

KS = (2, 3, 5, 8)

#: Fixed configurations per k — all colors well supported so chi-square
#: expected counts stay comfortably large.
COUNTS = {
    2: np.array([60, 40]),
    3: np.array([45, 33, 22]),
    5: np.array([30, 25, 20, 15, 10]),
    8: np.array([22, 18, 15, 13, 11, 9, 7, 5]),
}


def _rule_panel():
    return [
        majority_rule(),
        majority_uniform_rule(),
        median_rule(),
        min_rule(),
        max_rule(),
        skewed_rule((1, 3, 2)),
    ]


def _agent_variant(rule: ThreeInputRule) -> ThreeInputRule:
    return ThreeInputRule(rule.pair_choice, rule.distinct_choice, rule.name, engine="agent")


def _triple_law(rule: ThreeInputRule, counts) -> np.ndarray:
    """Exact law by brute-force summation over all k³ ordered triples.

    Every triple goes through ``rule.apply``, so no closed form enters:
    the O(k³) oracle the O(k) law is checked against.  A uniform distinct
    choice is the one case that draws; its distinct triples are split 1/3
    to each position here instead, and ``apply`` sees only the others.
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = counts.size
    f = counts / counts.sum()
    a, b, c = np.indices((k, k, k)).reshape(3, -1)
    prob = f[a] * f[b] * f[c]
    law = np.zeros(k)
    if rule.distinct_choice == "uniform":
        distinct = (a != b) & (b != c) & (a != c)
        for column in (a, b, c):
            np.add.at(law, column[distinct], prob[distinct] / 3.0)
        a, b, c, prob = a[~distinct], b[~distinct], c[~distinct], prob[~distinct]
    np.add.at(law, rule.apply(a, b, c, None), prob)  # rng-free on these triples
    return law


def _chi_square_ok(observed: np.ndarray, law: np.ndarray, total: int) -> None:
    """Assert aggregated one-hot draws are consistent with ``law``."""
    expected = law * total
    # Pool ultra-rare cells into the largest one to keep the chi-square
    # approximation honest; none of the fixtures should trigger this.
    assert expected.min() > 1.0, "fixture produced a degenerate expected cell"
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    crit = float(stats.chi2.isf(1e-6, df=law.size - 1))
    assert chi2 < crit, f"chi2={chi2:.1f} crit={crit:.1f} obs={observed} exp={expected}"
    tv = 0.5 * float(np.abs(observed / total - law).sum())
    assert tv < 0.02, f"TV distance {tv:.4f} too large"


class TestThreeInputLawExactness:
    @pytest.mark.parametrize("k", KS)
    def test_fast_law_matches_brute_force(self, k):
        for rule in _rule_panel():
            fast = rule.color_law(COUNTS[k])
            ref = _triple_law(rule, COUNTS[k])
            assert np.allclose(fast, ref, atol=1e-12), (rule.name, k)
            assert fast.sum() == pytest.approx(1.0)
            assert (fast >= 0).all()

    def test_fast_law_matches_brute_force_random_rules(self, rng):
        # Random members of the position-based family, including non-major
        # pair choices, at a k beyond the test grid.
        for i in range(10):
            pair = {p: ["major", "minor", "low", "high"][rng.integers(4)] for p in PAIR_PATTERNS}
            distinct = {pat: int(rng.integers(3)) for pat in DISTINCT_PATTERNS}
            rule = ThreeInputRule(pair, distinct, name=f"random-{i}")
            counts = rng.integers(1, 40, size=11)
            assert np.allclose(
                rule.color_law(counts), _triple_law(rule, counts), atol=1e-12
            )

    def test_majority_law_is_lemma1(self):
        for k in KS:
            assert np.allclose(
                majority_rule().color_law(COUNTS[k]), three_majority_law(COUNTS[k])
            )

    def test_batch_law_matches_per_row(self, rng):
        rule = skewed_rule((0, 4, 2))
        batch = rng.integers(1, 50, size=(9, 6))
        assert np.allclose(
            rule.color_law(batch), np.stack([rule.color_law(row) for row in batch])
        )


class TestThreeInputStatistical:
    @pytest.mark.parametrize("k", KS)
    def test_agent_engine_matches_counts_law(self, k):
        counts = COUNTS[k]
        n = int(counts.sum())
        steps = 400
        for rule in _rule_panel():
            agent = _agent_variant(rule)
            rng = np.random.default_rng(abs(hash((rule.name, k))) % 2**32)
            acc = np.zeros(k)
            for _ in range(steps):
                acc += agent.step(counts, rng)
            _chi_square_ok(acc, rule.color_law(counts), n * steps)

    def test_counts_engine_matches_law_too(self):
        # The multinomial engine itself, same aggregation, closes the loop.
        counts = COUNTS[5]
        rule = median_rule()
        rng = np.random.default_rng(7)
        acc = np.zeros(5)
        steps = 400
        for _ in range(steps):
            acc += rule.step(counts, rng)
        _chi_square_ok(acc, rule.color_law(counts), int(counts.sum()) * steps)

    def test_ensembles_statistically_equivalent(self):
        cfg = Configuration([600, 300, 100])
        fast = run_ensemble(majority_rule(), cfg, 32, rng=1, max_rounds=2_000)
        slow = run_ensemble(_agent_variant(majority_rule()), cfg, 32, rng=2, max_rounds=2_000)
        assert fast.plurality_win_rate == slow.plurality_win_rate == 1.0
        assert abs(fast.rounds_summary()["median"] - slow.rounds_summary()["median"]) < 3.0


class TestHPluralityExactness:
    @pytest.mark.parametrize("k", KS)
    def test_h3_composition_table_is_lemma1(self, k):
        # The composition table is gone; the generating-function law that
        # replaced it must reproduce Lemma 1 at h = 3.
        p = COUNTS[k] / COUNTS[k].sum()
        assert np.allclose(plurality_law(p[None, :], 3)[0], three_majority_law(COUNTS[k]), atol=1e-12)

    @pytest.mark.parametrize("h", (1, 2))
    def test_small_h_collapses_to_voter(self, h):
        counts = COUNTS[5]
        assert np.allclose(HPlurality(h).color_law(counts), counts / counts.sum())
        assert np.allclose(plurality_law((counts / counts.sum())[None, :], h)[0],
                           counts / counts.sum(), atol=1e-12)

    @pytest.mark.parametrize("h", (4, 5))
    @pytest.mark.parametrize("k", KS)
    def test_law_is_distribution(self, h, k):
        law = HPlurality(h).color_law(COUNTS[k])
        assert law.sum() == pytest.approx(1.0)
        assert (law >= 0).all()

    def test_law_handles_zero_counts(self):
        law = HPlurality(5).color_law(np.array([30, 0, 20, 0]))
        assert law.sum() == pytest.approx(1.0)
        assert law[1] == 0.0 and law[3] == 0.0

    def test_batch_law_matches_per_row(self, rng):
        dyn = HPlurality(5)
        batch = rng.integers(1, 50, size=(7, 4))
        assert np.allclose(
            dyn.color_law(batch), np.stack([dyn.color_law(row) for row in batch])
        )

    def test_batch_law_chunked_paths_match(self, rng, monkeypatch):
        # Shrinking the cell budget splits the batch into row chunks (down
        # to one row each); every row's law is computed alone, so the
        # chunked evaluation equals the unchunked one bit for bit.
        import repro.core.majority as majority

        batch = rng.integers(1, 50, size=(13, 5))
        reference = HPlurality(5).color_law(batch)
        for cells in (5 * 7 * 8 * 3, 1):  # three rows per chunk; one
            monkeypatch.setattr(majority, "_LAW_CHUNK_CELLS", cells)
            np.testing.assert_array_equal(HPlurality(5).color_law(batch), reference)


class TestHPluralityStatistical:
    @pytest.mark.parametrize("h", (2, 4, 5, 7, 9))
    @pytest.mark.parametrize("k", KS)
    def test_agent_engine_matches_composition_law(self, h, k):
        counts = COUNTS[k]
        n = int(counts.sum())
        law = HPlurality(h).color_law(counts)
        agent = HPlurality(h, engine="agent")
        rng = np.random.default_rng(h * 1000 + k)
        steps = 400
        acc = np.zeros(k)
        for _ in range(steps):
            acc += agent.step(counts, rng)
        _chi_square_ok(acc, law, n * steps)

    def test_counts_step_many_matches_law(self):
        dyn = HPlurality(5)
        counts = COUNTS[5]
        rng = np.random.default_rng(11)
        batch = np.tile(counts, (300, 1))
        out = dyn.step_many(batch, rng)
        assert (out.sum(axis=1) == counts.sum()).all()
        _chi_square_ok(out.sum(axis=0).astype(float), dyn.color_law(counts),
                       int(counts.sum()) * 300)


class TestEngineSelection:
    def test_three_input_engines(self):
        assert majority_rule().resolved_engine() == "counts"
        assert _agent_variant(majority_rule()).resolved_engine() == "agent"
        with pytest.raises(ValueError, match="unknown engine"):
            ThreeInputRule({p: "major" for p in PAIR_PATTERNS}, "uniform", engine="fast")

    def test_hplurality_auto_resolution(self):
        # The law exists at every (h, k), so auto is counts everywhere (it
        # fell back to agent for large tables and for every h > 5).
        for h, k in ((3, 1_000), (5, 16), (5, 64), (8, 4), (16, 64), (32, 4096)):
            assert HPlurality(h).resolved_engine(k) == "counts", (h, k)
            assert HPlurality(h, engine="agent").resolved_engine(k) == "agent", (h, k)

    def test_hplurality_forced_counts_validates(self):
        # engine="counts" no longer raises above h = 5; it steps the law.
        assert HPlurality(5, engine="counts").resolved_engine(8) == "counts"
        dyn = HPlurality(8, engine="counts")
        assert dyn.resolved_engine(4) == "counts"
        out = dyn.step_many(np.tile([40, 30, 20, 10], (3, 1)), np.random.default_rng(5))
        assert (out.sum(axis=1) == 100).all()
        with pytest.raises(ValueError, match="unknown engine"):
            HPlurality(8, engine="fast")

    def test_three_majority_engine_kwarg(self):
        assert ThreeMajority(engine="agent").resolved_engine(3) == "agent"
        assert ThreeMajority(engine="counts").engine == "counts"
        assert ThreeMajority().resolved_engine(3) == "counts"
        with pytest.raises(ValueError, match="unknown engine"):
            ThreeMajority(engine="fast")
        # engine="agent" is the one spelling of the agent engine.
        with pytest.raises(TypeError):
            ThreeMajority(agent_level=True)

    def test_three_majority_agent_engine_covers_batch_path(self, rng):
        # engine="agent" must hold on step_many too, not just step —
        # otherwise ensemble cross-validation would compare the law to itself.
        from repro.core.samplers import batched_agent_step

        for tie_break in ("first", "uniform"):
            dyn = ThreeMajority(tie_break=tie_break, engine="agent")
            batch = np.tile([50, 30, 20], (6, 1))
            seed = rng.integers(2**32)
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            rule = dyn.agent_rule(3)
            expected = batched_agent_step(
                batch, rule.h, ref_gen, lambda seen, r: rule.reduce(None, seen, r)
            )
            np.testing.assert_array_equal(dyn.step_many(batch, gen), expected)
            assert gen.integers(2**62) == ref_gen.integers(2**62)
        dyn = ThreeMajority(engine="agent")
        out = dyn.step_many(np.tile([50, 30, 20], (6, 1)), rng)
        assert out.shape == (6, 3)
        assert (out.sum(axis=1) == 100).all()

    def test_hplurality_streamed_law_matches_table(self):
        # The streamed composition blocks are gone.  What replaced them
        # pads the colors to a power-of-two product tree: appending extinct
        # colors (k = 8 -> 13, a wider tree) must leave the law unchanged.
        dyn = HPlurality(5)
        counts = np.array([22, 18, 15, 13, 11, 9, 7, 5])
        whole = dyn.color_law(counts)
        padded = dyn.color_law(np.concatenate([counts, np.zeros(5, dtype=np.int64)]))
        assert np.allclose(padded[:8], whole, atol=1e-12)
        assert (padded[8:] == 0.0).all()
        assert whole.sum() == pytest.approx(1.0)

    def test_empty_batches_round_trip(self, rng):
        # (0, k) batches must come back as (0, k) on every engine path.
        empty = np.zeros((0, 3), dtype=np.int64)
        for dyn in (
            ThreeMajority(),
            ThreeMajority(engine="agent"),
            HPlurality(5),
            HPlurality(5, engine="agent"),
            majority_rule(),
            _agent_variant(majority_rule()),
        ):
            out = dyn.step_many(empty, rng)
            assert out.shape == (0, 3), dyn.name

    def test_hplurality_law_exists_whenever_supported(self):
        # color_law computes at every h, including k = 70 (whose h = 4
        # composition table used to stream) and h = 6, 9 (which had no law).
        for h in (4, 6, 9):
            dyn = HPlurality(h)
            law = dyn.color_law(np.arange(1, 71))
            assert law.sum() == pytest.approx(1.0)
            assert (law >= 0).all()

    def test_supports_exact_law_is_cached_and_structural(self):
        # A dynamics that declares no law says so when asked for one.
        from repro.core.dynamics import Dynamics

        class NoLaw(Dynamics):
            def step(self, counts, rng):
                return counts

        with pytest.raises(NotImplementedError, match="no closed-form color law"):
            NoLaw().color_law(np.array([3, 2, 1]))


class TestSparseEnsembleCrossValidation:
    """Sparse vs dense vs agent engines agree with the exact law.

    The sparse layout consumes randomness differently, so equality is
    statistical: the fixture support is embedded at scattered positions
    inside a large dead color space, one-round ensembles are aggregated,
    and the observed counts are chi-square/TV-tested against the dense
    law restricted to the support — for the sparse engine, the dense
    engine and the agent engine alike, closing the three-way loop.
    """

    BIG_K = 4096

    def _embed(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = counts.size
        positions = np.linspace(17, self.BIG_K - 19, k).astype(np.int64)
        dense = np.zeros(self.BIG_K, dtype=np.int64)
        dense[positions] = counts * 40  # scale so expected cells stay large
        return dense, positions

    def _one_round_counts(self, dynamics, dense0, engine, seed, replicas=150):
        ens = run_ensemble(
            dynamics, Configuration(dense0), replicas, rng=seed, max_rounds=1, engine=engine
        )
        assert ens.final_counts is not None
        assert (ens.final_counts.sum(axis=1) == dense0.sum()).all()
        return ens.final_counts.sum(axis=0).astype(float), replicas

    @pytest.mark.parametrize("k", (3, 5, 8))
    def test_three_majority_engines_match_law(self, k):
        dense0, positions = self._embed(COUNTS[k])
        law = ThreeMajority().color_law(dense0)[positions]
        n = int(dense0.sum())
        for engine, dynamics, seed in (
            ("sparse", ThreeMajority(), 11),
            ("dense", ThreeMajority(), 12),
            ("sparse", ThreeMajority(engine="agent"), 13),
        ):
            observed, replicas = self._one_round_counts(dynamics, dense0, engine, seed)
            # All mass stays on the embedded support in every engine.
            assert observed.sum() == n * replicas
            _chi_square_ok(observed[positions], law, n * replicas)

    def test_three_input_rule_sparse_matches_law(self):
        dense0, positions = self._embed(COUNTS[5])
        n = int(dense0.sum())
        for rule in (median_rule(), skewed_rule((1, 3, 2))):
            law = rule.color_law(dense0)[positions]
            observed, replicas = self._one_round_counts(rule, dense0, "sparse", 17)
            _chi_square_ok(observed[positions], law, n * replicas)

    def test_hplurality_sparse_reenables_exact_law_and_matches_it(self):
        # Dense auto at k = 4096 used to step agent-level (table too
        # large); now the law runs at any width, and compacted to s = 5 it
        # must agree with the law computed on the dense embedding.
        dyn = HPlurality(5)
        dense0, positions = self._embed(COUNTS[5])
        assert dyn.resolved_engine(self.BIG_K) == "counts"
        assert dyn.resolved_engine(COUNTS[5].size) == "counts"
        law = dyn.color_law(COUNTS[5] * 40)  # compacted-axis law == dense restricted
        assert np.allclose(dyn.color_law(dense0)[positions], law, atol=1e-12)
        observed, replicas = self._one_round_counts(dyn, dense0, "sparse", 19)
        _chi_square_ok(observed[positions], law, int(dense0.sum()) * replicas)

    def test_sparse_and_dense_full_runs_statistically_equivalent(self):
        dense0, positions = self._embed(np.array([15, 8, 2]))
        sparse = run_ensemble(ThreeMajority(), Configuration(dense0), 64, rng=1, max_rounds=2_000, engine="sparse")
        dense = run_ensemble(ThreeMajority(), Configuration(dense0), 64, rng=2, max_rounds=2_000, engine="dense")
        assert sparse.convergence_rate == dense.convergence_rate == 1.0
        assert abs(sparse.plurality_win_rate - dense.plurality_win_rate) < 0.25
        assert abs(sparse.rounds_summary()["median"] - dense.rounds_summary()["median"]) < 3.0


class TestBatchedAgentEngines:
    """The replica-batched agent ``step_many`` draws from the same law.

    The batched path replaces a per-replica Python loop with one
    offset-flattened categorical block; bit streams differ, so the checks
    are distributional — aggregated batched steps against the exact law
    (the per-replica path is validated against the same law above, which
    closes the batched ≡ per-replica loop).
    """

    def _aggregate(self, dynamics, counts, seed, batches=30, replicas=20):
        rng = np.random.default_rng(seed)
        batch = np.tile(counts, (replicas, 1))
        acc = np.zeros(counts.size)
        for _ in range(batches):
            out = dynamics.step_many(batch, rng)
            assert out.shape == batch.shape
            assert (out.sum(axis=1) == counts.sum()).all()
            acc += out.sum(axis=0)
        return acc, int(counts.sum()) * batches * replicas

    def test_three_majority_agent_batch_matches_law(self):
        observed, total = self._aggregate(ThreeMajority(engine="agent"), COUNTS[5], 23)
        _chi_square_ok(observed, three_majority_law(COUNTS[5]), total)

    def test_three_majority_uniform_tiebreak_batch_matches_law(self):
        dyn = ThreeMajority(engine="agent", tie_break="uniform")
        observed, total = self._aggregate(dyn, COUNTS[5], 29)
        _chi_square_ok(observed, three_majority_law(COUNTS[5]), total)

    def test_three_input_rule_agent_batch_matches_law(self):
        for rule in (median_rule(), min_rule(), skewed_rule((1, 3, 2))):
            agent = _agent_variant(rule)
            observed, total = self._aggregate(agent, COUNTS[5], 31)
            _chi_square_ok(observed, rule.color_law(COUNTS[5]), total)

    @pytest.mark.parametrize("h", (4, 5))
    def test_hplurality_agent_batch_matches_composition_law(self, h):
        observed, total = self._aggregate(HPlurality(h, engine="agent"), COUNTS[5], 37 + h)
        _chi_square_ok(observed, HPlurality(h).color_law(COUNTS[5]), total)

    def test_ragged_totals_fall_back_to_per_row_path(self, rng):
        ragged = np.array([[50, 30, 20], [10, 5, 5], [2, 1, 0]])
        for dyn in (
            ThreeMajority(engine="agent"),
            HPlurality(6),
            _agent_variant(majority_rule()),
        ):
            out = dyn.step_many(ragged, rng)
            assert (out.sum(axis=1) == ragged.sum(axis=1)).all(), dyn.name

    def test_batched_categorical_distribution(self, rng):
        # The categorical blocks batched_agent_step draws and hands to the
        # rule: one (rows·n, h) block per replica chunk.
        from repro.core.samplers import batched_agent_step

        blocks = []
        counts = np.tile([50, 30, 20], (40, 1))
        out = batched_agent_step(counts, 4, rng, lambda seen, r: blocks.append(seen) or seen[:, 0])
        samples = np.concatenate(blocks)
        assert samples.shape == (40 * 100, 4)
        freq = np.bincount(samples.ravel(), minlength=3) / samples.size
        assert np.abs(freq - np.array([0.5, 0.3, 0.2])).max() < 0.02
        assert (out.sum(axis=1) == 100).all()

    def test_batched_categorical_rejects_bad_input(self, rng):
        from repro.core.samplers import batched_agent_step

        def step(counts, h):
            return batched_agent_step(counts, h, rng, lambda seen, r: seen[:, 0])

        with pytest.raises(ValueError, match="same positive total"):
            step(np.array([[2, 1], [1, 1]]), 3)
        with pytest.raises(ValueError, match="batch"):
            step(np.array([2, 1]), 3)
        with pytest.raises(ValueError, match="h >= 1"):
            step(np.array([[2, 1]]), 0)
        assert step(np.zeros((0, 3), dtype=np.int64), 2).shape == (0, 3)


class TestGraphCliqueCrossValidation:
    """The clique-topology graph engine draws from the counts-engine law.

    On the complete graph with self-loops every agent's sampling pool is
    the whole population, so each agent's next color is marginally the
    exact counts-level law.  Aggregated one-round graph-ensemble steps
    must therefore pass the same chi-square/TV gate the counts engines
    pass — closing the loop between the per-agent CSR substrate and the
    anonymous (R, k) engines at equal (n, k, rounds).
    """

    def _one_round_graph_counts(self, dynamics, counts, seed, replicas=150):
        from repro.graphs import clique, run_graph_ensemble

        n = int(counts.sum())
        ens = run_graph_ensemble(
            dynamics, clique(n), Configuration(counts), replicas, max_rounds=1, rng=seed
        )
        assert ens.final_counts is not None
        assert (ens.final_counts.sum(axis=1) == n).all()
        return ens.final_counts.sum(axis=0).astype(float), n * replicas

    @pytest.mark.parametrize("k", (3, 5, 8))
    def test_three_majority_clique_matches_law(self, k):
        observed, total = self._one_round_graph_counts(ThreeMajority(), COUNTS[k], 41 + k)
        _chi_square_ok(observed, three_majority_law(COUNTS[k]), total)

    def test_three_input_rules_clique_match_law(self):
        for rule in (median_rule(), skewed_rule((1, 3, 2))):
            observed, total = self._one_round_graph_counts(rule, COUNTS[5], 43)
            _chi_square_ok(observed, rule.color_law(COUNTS[5]), total)

    @pytest.mark.parametrize("h", (2, 4))
    def test_hplurality_clique_matches_composition_law(self, h):
        observed, total = self._one_round_graph_counts(HPlurality(h), COUNTS[5], 47 + h)
        _chi_square_ok(observed, HPlurality(h).color_law(COUNTS[5]), total)


class TestCorruptMany:
    def _batch(self, rng, rows=12, k=5, n=200):
        batch = np.stack(
            [np.asarray(rng.multinomial(n, np.full(k, 1 / k)), dtype=np.int64) for _ in range(rows)]
        )
        return batch

    @pytest.mark.parametrize(
        "adv_cls", [TargetedAdversary, BalancingAdversary, RandomAdversary, ReviveAdversary]
    )
    def test_contract_held_on_batch(self, adv_cls, rng):
        batch = self._batch(rng)
        out = adv_cls(9).corrupt_many(batch, rng)
        assert out.shape == batch.shape
        assert (out.sum(axis=1) == batch.sum(axis=1)).all()
        assert (out >= 0).all()
        assert (np.abs(out - batch).sum(axis=1) // 2 <= 9).all()

    @pytest.mark.parametrize("adv_cls", [TargetedAdversary, ReviveAdversary, BalancingAdversary])
    def test_deterministic_batch_equals_per_row(self, adv_cls, rng):
        batch = self._batch(rng)
        adv = adv_cls(7)
        out = adv.corrupt_many(batch, rng)
        rows = np.stack([adv.corrupt(row, rng) for row in batch])
        assert (out == rows).all()

    def test_rejects_non_batch_input(self, rng):
        with pytest.raises(ValueError, match="corrupt_many"):
            TargetedAdversary(3).corrupt_many(np.array([5, 5]), rng)

    def test_cheating_batch_adversary_caught(self, rng):
        class Cheater(TargetedAdversary):
            def _act_many(self, counts, rng):
                counts[:, 0] += 1  # creates agents
                return counts

        with pytest.raises(RuntimeError, match="number of agents"):
            Cheater(5).corrupt_many(self._batch(rng), rng)

    def test_ensemble_with_adversary_uses_batched_path(self):
        # The adversary keeps peeling 2 agents off the top each round, so the
        # process never registers monochromatic — but the plurality must
        # dominate every replica's final configuration.
        cfg = Configuration.biased(2_000, 3, 600)
        ens = run_ensemble(
            majority_rule(), cfg, 8, rng=3, max_rounds=300, adversary=TargetedAdversary(2)
        )
        assert ens.replicas == 8
        assert ens.final_counts is not None
        assert (ens.final_counts.sum(axis=1) == 2_000).all()
        assert (np.argmax(ens.final_counts, axis=1) == ens.plurality_color).all()
        assert (ens.final_counts[:, ens.plurality_color] >= 1_900).all()

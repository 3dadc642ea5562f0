"""Tests for the composable stopping rules and their runner integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AnyOfStop,
    BiasThresholdStop,
    Configuration,
    MetricThresholdStop,
    MonochromaticStop,
    PluralityFractionStop,
    RoundBudgetStop,
    ThreeMajority,
    run_ensemble,
    run_process,
    stopping_from_dict,
)


class TestRulePredicates:
    def test_monochromatic(self):
        rule = MonochromaticStop()
        assert rule.met(np.array([10, 0, 0]), 10, 1)
        assert not rule.met(np.array([9, 1, 0]), 10, 1)
        out = rule.met_many(np.array([[10, 0], [5, 5]]), 10, 0)
        assert out.tolist() == [True, False]

    def test_plurality_fraction(self):
        rule = PluralityFractionStop(0.8)
        assert rule.met(np.array([8, 1, 1]), 10, 1)
        assert not rule.met(np.array([7, 2, 1]), 10, 1)
        assert rule.met_many(np.array([[8, 2], [7, 3]]), 10, 1).tolist() == [True, False]

    def test_plurality_fraction_validates(self):
        with pytest.raises(ValueError, match="fraction"):
            PluralityFractionStop(0.0)
        with pytest.raises(ValueError, match="fraction"):
            PluralityFractionStop(1.5)

    def test_bias_threshold(self):
        rule = BiasThresholdStop(5)
        assert rule.met(np.array([9, 4, 1]), 14, 1)
        assert not rule.met(np.array([9, 5, 0]), 14, 1)
        out = rule.met_many(np.array([[9, 4, 1], [6, 6, 2]]), 14, 1)
        assert out.tolist() == [True, False]

    def test_bias_threshold_single_color(self):
        assert BiasThresholdStop(3).met_many(np.array([[7]]), 7, 0).tolist() == [True]

    def test_round_budget(self):
        rule = RoundBudgetStop(3)
        assert not rule.met(np.array([5, 5]), 10, 2)
        assert rule.met(np.array([5, 5]), 10, 3)
        assert rule.met_many(np.array([[5, 5]]), 10, 7).tolist() == [True]

    def test_any_of_reports_first_firing_member(self):
        rule = AnyOfStop([BiasThresholdStop(100), RoundBudgetStop(2)])
        counts = np.array([5, 5])
        assert rule.fired(counts, 10, 1) is None
        assert rule.fired(counts, 10, 2) == "round-budget"
        both = AnyOfStop([RoundBudgetStop(0), PluralityFractionStop(0.1)])
        # Both members fire; the first in order wins.
        assert both.fired(np.array([9, 1]), 10, 5) == "round-budget"
        names = both.fired_many(np.array([[9, 1], [5, 5]]), 10, 5)
        assert names.tolist() == ["round-budget", "round-budget"]

    def test_any_of_rejects_empty_and_junk(self):
        with pytest.raises(ValueError, match="at least one"):
            AnyOfStop([])
        with pytest.raises(ValueError, match="stopping rules"):
            AnyOfStop([42])


class TestStoppingOverMetrics:
    """The configuration rules are thresholds over registered metrics.

    One vectorized evaluation path (the metric's ``compute_many``) serves
    both ``met`` and ``met_many``, and the ``stopped_by`` label vocabulary
    survives the rewrite unchanged.
    """

    def test_rules_are_metric_thresholds(self):
        assert isinstance(MonochromaticStop(), MetricThresholdStop)
        assert isinstance(PluralityFractionStop(0.5), MetricThresholdStop)
        assert isinstance(BiasThresholdStop(3), MetricThresholdStop)
        assert MonochromaticStop().metric_name == "plurality-count"
        assert PluralityFractionStop(0.5).metric_name == "plurality-count"
        assert BiasThresholdStop(3).metric_name == "bias"

    def test_met_is_met_many_on_one_row(self):
        counts = np.array([[8, 1, 1], [4, 4, 2], [10, 0, 0]])
        for rule in (MonochromaticStop(), PluralityFractionStop(0.8), BiasThresholdStop(3)):
            batched = rule.met_many(counts, 10, 1)
            scalar = [rule.met(row, 10, 1) for row in counts]
            assert batched.tolist() == scalar

    def test_legacy_stopped_by_vocabulary_unchanged(self):
        """The rewrite must not rename any label a downstream consumer parses."""
        assert MonochromaticStop().rule == "monochromatic"
        assert PluralityFractionStop(0.5).rule == "plurality-fraction"
        assert BiasThresholdStop(3).rule == "bias-threshold"
        assert RoundBudgetStop(1).rule == "round-budget"
        assert AnyOfStop([RoundBudgetStop(1)]).rule == "any-of"
        from repro.core.stopping import BUDGET_EXHAUSTED

        assert BUDGET_EXHAUSTED == "max-rounds"

    def test_legacy_labels_survive_in_runner_results(self):
        cfg = Configuration.biased(20_000, 4, 2_000)
        res = run_process(
            ThreeMajority(), cfg, rng=0, stopping=PluralityFractionStop(0.5), max_rounds=10_000
        )
        assert res.stopped_by in {"monochromatic", "plurality-fraction"}
        ens = run_ensemble(
            ThreeMajority(), cfg, 8, rng=0, stopping=BiasThresholdStop(8_000), max_rounds=5_000
        )
        assert set(ens.stop_reasons()) <= {"monochromatic", "bias-threshold", "max-rounds"}

    def test_plurality_fraction_comparison_unchanged(self):
        # The threshold compares the integer plurality count against
        # fraction·n, exactly like the pre-metric implementation — the
        # boundary case (count == fraction·n) must still fire.
        rule = PluralityFractionStop(0.5)
        assert rule.met(np.array([5, 3, 2]), 10, 0)
        assert not rule.met(np.array([4, 3, 3]), 10, 0)


class TestSerialization:
    @pytest.mark.parametrize(
        "rule",
        [
            MonochromaticStop(),
            PluralityFractionStop(0.75),
            BiasThresholdStop(10),
            RoundBudgetStop(500),
            AnyOfStop([PluralityFractionStop(0.9), RoundBudgetStop(100)]),
        ],
    )
    def test_round_trip(self, rule):
        assert stopping_from_dict(rule.to_dict()) == rule

    def test_nested_dicts_accepted(self):
        rule = stopping_from_dict(
            {"rule": "any-of", "rules": [{"rule": "bias-threshold", "threshold": 3}]}
        )
        assert isinstance(rule, AnyOfStop)
        assert rule.rules[0] == BiasThresholdStop(3)

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError, match="unknown stopping rule"):
            stopping_from_dict({"rule": "nope"})

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="plurality-fraction"):
            stopping_from_dict({"rule": "plurality-fraction", "fractoin": 0.5})

    def test_missing_rule_key_rejected(self):
        with pytest.raises(ValueError, match="'rule' key"):
            stopping_from_dict({"fraction": 0.5})


class TestRunProcessIntegration:
    def test_records_monochromatic(self):
        res = run_process(ThreeMajority(), Configuration.biased(5_000, 4, 800), rng=0)
        assert res.converged
        assert res.stopped_by == "monochromatic"

    def test_records_max_rounds(self):
        res = run_process(ThreeMajority(), Configuration.balanced(10_000, 10), rng=0, max_rounds=2)
        assert not res.converged
        assert res.stopped_by == "max-rounds"

    def test_plurality_fraction_rule_fires_and_is_recorded(self):
        cfg = Configuration.biased(20_000, 4, 2_000)
        res = run_process(
            ThreeMajority(),
            cfg,
            rng=0,
            stopping=PluralityFractionStop(0.5),
            max_rounds=10_000,
        )
        if res.converged:
            assert res.stopped_by == "monochromatic"
        else:
            assert res.stopped_by == "plurality-fraction"
            assert res.trace.replica(0, "plurality-count")[-1] >= 10_000

    def test_rule_only_truncates_never_perturbs(self):
        cfg = Configuration.biased(10_000, 5, 1_000)
        free = run_process(ThreeMajority(), cfg, rng=7)
        stopped = run_process(
            ThreeMajority(), cfg, rng=7, stopping=PluralityFractionStop(0.6)
        )
        m = stopped.rounds + 1
        assert np.array_equal(
            stopped.trace.replica(0, "plurality-count"),
            free.trace.replica(0, "plurality-count")[:m],
        )
        assert np.array_equal(
            stopped.trace.replica(0, "bias"), free.trace.replica(0, "bias")[:m]
        )

    def test_accepts_serialized_dict(self):
        cfg = Configuration.biased(10_000, 5, 1_000)
        a = run_process(
            ThreeMajority(), cfg, rng=3, stopping={"rule": "bias-threshold", "threshold": 4_000}
        )
        b = run_process(ThreeMajority(), cfg, rng=3, stopping=BiasThresholdStop(4_000))
        assert a.rounds == b.rounds
        assert a.stopped_by == b.stopped_by

    def test_rejects_junk_stopping(self):
        with pytest.raises(TypeError, match="StoppingRule"):
            run_process(ThreeMajority(), Configuration.biased(100, 2, 10), rng=0, stopping=3.5)


class TestRunEnsembleIntegration:
    def test_stopped_by_labels_batched(self):
        cfg = Configuration.biased(20_000, 4, 2_000)
        ens = run_ensemble(
            ThreeMajority(), cfg, 16, rng=0, stopping=PluralityFractionStop(0.5), max_rounds=5_000
        )
        assert ens.stopped_by is not None
        assert set(ens.stop_reasons()) <= {"monochromatic", "plurality-fraction"}
        stopped = ~ens.converged
        assert all(label == "plurality-fraction" for label in ens.stopped_by[stopped])
        # Early-stopped replicas keep their stop round, not the budget.
        assert np.all(ens.rounds[stopped] < 5_000)
        assert ens.final_counts is not None
        assert np.all(ens.final_counts[stopped].max(axis=1) >= 0.5 * 20_000)

    def test_stopped_by_labels_unbatched(self):
        cfg = Configuration.biased(10_000, 3, 1_500)
        ens = run_ensemble(
            ThreeMajority(),
            cfg,
            6,
            rng=1,
            stopping=PluralityFractionStop(0.6),
            max_rounds=2_000,
            batch=False,
        )
        assert ens.stopped_by is not None
        assert set(ens.stop_reasons()) <= {"monochromatic", "plurality-fraction"}

    def test_max_rounds_label_without_rule(self):
        ens = run_ensemble(ThreeMajority(), Configuration.balanced(10_000, 10), 4, rng=0, max_rounds=2)
        assert ens.stop_reasons() == {"max-rounds": 4}

    def test_soft_round_budget_distinct_from_hard_max_rounds(self):
        cfg = Configuration.balanced(10_000, 10)
        soft = run_process(
            ThreeMajority(), cfg, rng=0, stopping=RoundBudgetStop(2), max_rounds=100
        )
        assert soft.stopped_by == "round-budget"
        assert soft.rounds == 2

    def test_no_stopping_matches_pre_rule_behavior(self):
        cfg = Configuration.biased(10_000, 4, 1_200)
        a = run_ensemble(ThreeMajority(), cfg, 8, rng=9)
        b = run_ensemble(ThreeMajority(), cfg, 8, rng=9, stopping=None)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.winners, b.winners)
        assert np.array_equal(a.final_counts, b.final_counts)


class TestStoppingAtRoundZero:
    """Regression: rules were never evaluated on the initial configuration.

    A rule already satisfied at t=0 used to burn a full round and report
    ``rounds=1``; now both runners check ``stopping.fired`` before stepping.
    """

    #: Initial plurality holds 60% — PluralityFractionStop(0.5) is already met.
    CFG = Configuration.biased(1_000, 3, 600)

    def test_run_process_fires_at_t0(self):
        res = run_process(
            ThreeMajority(), self.CFG, rng=0, stopping=PluralityFractionStop(0.5)
        )
        assert res.rounds == 0
        assert res.stopped_by == "plurality-fraction"
        assert not res.converged
        assert np.array_equal(res.final_counts, self.CFG.counts)
        assert res.trace.n_rounds == 1  # only the t=0 snapshot

    def test_zero_round_budget_fires_at_t0(self):
        res = run_process(
            ThreeMajority(), self.CFG, rng=0, stopping=RoundBudgetStop(0)
        )
        assert res.rounds == 0
        assert res.stopped_by == "round-budget"

    def test_monochromatic_absorption_wins_over_rules_at_t0(self):
        mono = Configuration([0, 50, 0])
        res = run_process(
            ThreeMajority(), mono, rng=0, stopping=PluralityFractionStop(0.1)
        )
        assert res.converged
        assert res.stopped_by == "monochromatic"
        assert res.rounds == 0

    def test_batched_and_unbatched_ensembles_agree_at_t0(self):
        kw = dict(stopping=PluralityFractionStop(0.5), max_rounds=100)
        batched = run_ensemble(ThreeMajority(), self.CFG, 5, rng=0, **kw)
        unbatched = run_ensemble(ThreeMajority(), self.CFG, 5, rng=0, batch=False, **kw)
        for ens in (batched, unbatched):
            assert np.all(ens.rounds == 0)
            assert all(label == "plurality-fraction" for label in ens.stopped_by)
            assert not np.any(ens.converged)
            assert np.array_equal(ens.final_counts, np.tile(self.CFG.counts, (5, 1)))

    def test_rule_not_met_at_t0_still_runs(self):
        res = run_process(
            ThreeMajority(),
            Configuration.biased(10_000, 4, 1_000),
            rng=0,
            stopping=PluralityFractionStop(0.99),
            max_rounds=5_000,
        )
        assert res.rounds > 0

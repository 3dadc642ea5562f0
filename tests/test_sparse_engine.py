"""The active-support sparse ensemble engine (``run_ensemble(engine="sparse")``).

Dense and sparse runs consume randomness differently, so equality is
checked at the *semantic* level here (results live in the dense-``k``
contract regardless of layout; winners, masses, labels and traces are
internally consistent) and at the *distribution* level in
``tests/test_counts_engines.py``'s chi-square/TV cross-validation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BalancingAdversary,
    Configuration,
    HPlurality,
    RandomAdversary,
    ReviveAdversary,
    RoundBudgetStop,
    TargetedAdversary,
    ThreeMajority,
    UndecidedState,
    Voter,
    majority_rule,
    run_ensemble,
    sparse_ineligibility,
)
from repro.core.metrics import METRICS
from repro.core.process import _SPARSE_AUTO_MIN_K
from repro.core.stopping import AnyOfStop, BiasThresholdStop, PluralityFractionStop


def _sparse_config(k: int = 4096, supported=(7, 900, 4000), masses=(600, 300, 100)):
    counts = np.zeros(k, dtype=np.int64)
    counts[list(supported)] = masses
    return Configuration(counts)


class TestEligibility:
    def test_all_builtin_colour_dynamics_eligible(self):
        for dynamics in (ThreeMajority(), ThreeMajority(engine="agent"), HPlurality(4),
                         HPlurality(6), Voter(), majority_rule()):
            assert sparse_ineligibility(dynamics) is None, dynamics.name

    def test_extra_state_dynamics_rejected(self):
        # Caught by the opt-in support_closed default; even a variant that
        # opted in would still be rejected for its extra non-color slot.
        reason = sparse_ineligibility(UndecidedState())
        assert reason is not None and "support-closed" in reason

        class OptedIn(UndecidedState):
            support_closed = True

        reason = sparse_ineligibility(OptedIn())
        assert reason is not None and "extra" in reason
        with pytest.raises(ValueError, match="sparse.*unavailable"):
            run_ensemble(UndecidedState(), _sparse_config(), 2, rng=0, engine="sparse")

    def test_non_support_closed_dynamics_rejected(self):
        class Reviver(ThreeMajority):
            support_closed = False

        assert "support-closed" in sparse_ineligibility(Reviver())
        with pytest.raises(ValueError, match="support-closed"):
            run_ensemble(Reviver(), _sparse_config(), 2, rng=0, engine="sparse")

    @pytest.mark.parametrize("adv_cls", [TargetedAdversary, RandomAdversary, ReviveAdversary])
    def test_reviving_adversaries_rejected(self, adv_cls):
        assert "support-preserving" in sparse_ineligibility(ThreeMajority(), adv_cls(3))
        with pytest.raises(ValueError, match="support-preserving"):
            run_ensemble(
                ThreeMajority(), _sparse_config(), 2, rng=0, engine="sparse",
                adversary=adv_cls(3),
            )

    def test_balancing_adversary_allowed(self):
        assert sparse_ineligibility(ThreeMajority(), BalancingAdversary(3)) is None
        ens = run_ensemble(
            ThreeMajority(), _sparse_config(), 4, rng=0, engine="sparse",
            adversary=BalancingAdversary(3), max_rounds=50,
        )
        assert (ens.final_counts.sum(axis=1) == 1000).all()

    def test_builtin_stopping_rules_allowed(self):
        rule = AnyOfStop([PluralityFractionStop(0.9), BiasThresholdStop(10),
                          RoundBudgetStop(500)])
        assert sparse_ineligibility(ThreeMajority(), None, rule) is None

    def test_third_party_stopping_rejected(self):
        class Custom(RoundBudgetStop):
            @property
            def sparse_invariant(self):
                return False

        reason = sparse_ineligibility(ThreeMajority(), None, Custom(5))
        assert reason is not None and "sparse-invariant" in reason

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown ensemble engine"):
            run_ensemble(ThreeMajority(), _sparse_config(), 2, rng=0, engine="fast")

    def test_sparse_needs_batched_path(self):
        with pytest.raises(ValueError, match="batch=True"):
            run_ensemble(
                ThreeMajority(), _sparse_config(), 2, rng=0, engine="sparse", batch=False
            )


class TestAutoSelection:
    def test_auto_threshold_covers_existing_workloads(self):
        # Every in-repo workload runs at k <= 100; auto must stay dense
        # (bit-stable with previous releases) below the threshold.
        assert _SPARSE_AUTO_MIN_K > 100

    def test_auto_below_threshold_is_dense_bit_identical(self):
        cfg = Configuration([600, 300, 100])
        auto = run_ensemble(ThreeMajority(), cfg, 16, rng=9)
        dense = run_ensemble(ThreeMajority(), cfg, 16, rng=9, engine="dense")
        assert np.array_equal(auto.rounds, dense.rounds)
        assert np.array_equal(auto.winners, dense.winners)
        assert np.array_equal(auto.final_counts, dense.final_counts)

    def test_auto_above_threshold_ineligible_falls_back_to_dense(self):
        # Targeted adversary forces dense even at large k: bit-identical
        # to an explicit engine="dense" run at equal seed.
        cfg = _sparse_config(k=256, supported=(0, 100, 255), masses=(600, 300, 100))
        auto = run_ensemble(
            ThreeMajority(), cfg, 4, rng=3, adversary=TargetedAdversary(2), max_rounds=30
        )
        dense = run_ensemble(
            ThreeMajority(), cfg, 4, rng=3, adversary=TargetedAdversary(2), max_rounds=30,
            engine="dense",
        )
        assert np.array_equal(auto.final_counts, dense.final_counts)

    def test_auto_above_threshold_upgrades_to_sparse(self):
        # Sparse and dense consume randomness differently; at equal seed an
        # upgraded auto run must match the explicit sparse run bit for bit
        # and (overwhelmingly) differ from the dense one.
        cfg = _sparse_config()
        auto = run_ensemble(ThreeMajority(), cfg, 8, rng=5, max_rounds=200)
        sparse = run_ensemble(ThreeMajority(), cfg, 8, rng=5, max_rounds=200, engine="sparse")
        dense = run_ensemble(ThreeMajority(), cfg, 8, rng=5, max_rounds=200, engine="dense")
        assert np.array_equal(auto.rounds, sparse.rounds)
        assert np.array_equal(auto.final_counts, sparse.final_counts)
        # All replicas absorb on the plurality either way; the per-replica
        # round counts expose the different randomness consumption.
        assert not np.array_equal(dense.rounds, sparse.rounds)


class TestSparseSemantics:
    def test_results_live_in_dense_k(self):
        cfg = _sparse_config()
        ens = run_ensemble(ThreeMajority(), cfg, 32, rng=0, engine="sparse", max_rounds=2_000)
        assert ens.final_counts.shape == (32, 4096)
        assert (ens.final_counts.sum(axis=1) == 1000).all()
        assert ens.convergence_rate == 1.0
        # Winners map back through the support to original color indices.
        assert set(np.unique(ens.winners)) <= {7, 900, 4000}
        assert ens.plurality_color == 7
        # Colors outside the initial support stay extinct everywhere.
        dead = np.ones(4096, dtype=bool)
        dead[[7, 900, 4000]] = False
        assert ens.final_counts[:, dead].sum() == 0

    def test_monochromatic_rows_scatter_correctly(self):
        ens = run_ensemble(ThreeMajority(), _sparse_config(), 16, rng=1, engine="sparse")
        assert ens.convergence_rate == 1.0
        rows = np.arange(16)
        assert (ens.final_counts[rows, ens.winners] == 1000).all()
        assert (ens.stopped_by == "monochromatic").all()

    def test_stopping_rules_fire_on_compacted_counts(self):
        ens = run_ensemble(
            ThreeMajority(), _sparse_config(), 16, rng=2, engine="sparse",
            stopping=PluralityFractionStop(0.9), max_rounds=2_000,
        )
        reasons = ens.stop_reasons()
        assert set(reasons) <= {"plurality-fraction", "monochromatic"}
        assert reasons.get("plurality-fraction", 0) > 0
        stopped = ens.stopped_by == "plurality-fraction"
        assert (ens.final_counts[stopped].max(axis=1) >= 900).all()

    def test_t0_stopping_mirrors_dense(self):
        cfg = _sparse_config(masses=(950, 30, 20))
        for engine in ("dense", "sparse"):
            ens = run_ensemble(
                ThreeMajority(), cfg, 4, rng=0, engine=engine,
                stopping=PluralityFractionStop(0.9),
            )
            assert (ens.rounds == 0).all(), engine
            assert (ens.stopped_by == "plurality-fraction").all(), engine
            assert np.array_equal(ens.final_counts, np.tile(cfg.counts, (4, 1))), engine

    def test_max_rounds_budget_label(self):
        ens = run_ensemble(
            Voter(), _sparse_config(k=200, supported=(0, 199), masses=(500, 500)),
            8, rng=0, engine="sparse", max_rounds=3,
        )
        assert set(ens.stop_reasons()) <= {"max-rounds", "monochromatic"}
        assert (ens.final_counts.sum(axis=1) == 1000).all()

    def test_recompaction_shrinks_working_set_without_changing_results(self):
        # A run long enough for colors to die exercises the hysteresis
        # path; the invariant is simply that outputs stay in dense k with
        # conserved mass and valid winners.
        cfg = _sparse_config(k=512, supported=tuple(range(0, 512, 16)),
                             masses=tuple(range(10, 42)))
        ens = run_ensemble(ThreeMajority(), cfg, 24, rng=4, engine="sparse", max_rounds=5_000)
        assert ens.convergence_rate == 1.0
        assert (ens.final_counts.sum(axis=1) == int(cfg.counts.sum())).all()
        assert set(np.unique(ens.winners)) <= set(range(0, 512, 16))

    def test_hplurality_auto_law_reactivates_on_compacted_width(self):
        # Dense auto at k = 4096 used to step agent-level (the h = 5
        # composition table was impossibly large); the generating-function
        # law runs at any width, so both widths resolve to counts, and the
        # compacted (s = 3) law is the dense law restricted to the support.
        # Sparse must agree with a small dense-k control in distribution
        # (checked elsewhere).
        dyn = HPlurality(5)
        assert dyn.resolved_engine(4096) == "counts"
        assert dyn.resolved_engine(3) == "counts"
        dense = _sparse_config().counts
        assert np.allclose(
            dyn.color_law(dense)[[7, 900, 4000]], dyn.color_law(np.array([600, 300, 100])),
            atol=1e-12,
        )
        ens = run_ensemble(dyn, _sparse_config(), 8, rng=6, engine="sparse", max_rounds=2_000)
        assert ens.convergence_rate == 1.0


class TestSparseTraces:
    def test_scalar_metrics_match_recomputation_from_counts(self):
        record = ["bias", "plurality-count", "plurality-fraction", "support-size",
                  "entropy", "tv-monochromatic", "counts"]
        ens = run_ensemble(
            ThreeMajority(), _sparse_config(), 8, rng=2, engine="sparse",
            record=record, max_rounds=2_000,
        )
        trace = ens.trace
        assert trace is not None and trace["counts"].shape[2] == 4096
        for name in record[:-1]:
            metric = METRICS.build(name)
            for replica in range(8):
                valid = int(trace.n_recorded[replica])
                recomputed = metric.compute_many(trace["counts"][replica, :valid], 1000)
                np.testing.assert_array_equal(
                    recomputed, trace.replica(replica, name), err_msg=name
                )

    def test_counts_trace_conserves_mass_and_support(self):
        ens = run_ensemble(
            ThreeMajority(), _sparse_config(), 6, rng=3, engine="sparse",
            record=["counts"], max_rounds=2_000,
        )
        trace = ens.trace
        mask = trace.valid_mask()
        sums = trace["counts"].sum(axis=2)
        assert (sums[mask] == 1000).all()
        assert (sums[~mask] == 0).all()  # zero padding past each stop
        dead = np.ones(4096, dtype=bool)
        dead[[7, 900, 4000]] = False
        assert trace["counts"][:, :, dead].sum() == 0

    def test_non_invariant_metric_sees_dense_counts(self):
        from repro.core.metrics import Metric

        class WidthMetric(Metric):
            """Deliberately support-dependent: records the counts width."""

            name = "width"
            dtype = np.int64
            sparse_invariant = False  # must be fed dense-k counts

            def compute_many(self, counts, n):
                counts = np.asarray(counts)
                return np.full(counts.shape[0], counts.shape[1], dtype=np.int64)

        METRICS.register("width")(WidthMetric)
        try:
            ens = run_ensemble(
                ThreeMajority(), _sparse_config(), 4, rng=0, engine="sparse",
                record=["width"], max_rounds=50,
            )
            trace = ens.trace
            assert (trace["width"][trace.valid_mask()] == 4096).all()
        finally:
            METRICS._entries.pop("width", None)

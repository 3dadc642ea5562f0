"""Tests for the process runner (trajectories and ensembles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Configuration,
    EnsembleResult,
    PluralityFractionStop,
    ThreeMajority,
    UndecidedState,
    Voter,
    run_ensemble,
    run_process,
)


class TestRunProcess:
    def test_converges_and_records(self):
        cfg = Configuration.biased(10_000, 5, 2_000)
        res = run_process(ThreeMajority(), cfg, rng=0, record=["counts", "bias", "plurality-count"])
        assert res.converged
        assert res.plurality_won
        assert res.winner == 0
        trajectory = res.trace.replica(0, "counts")
        assert trajectory.shape == (res.rounds + 1, 5)
        assert res.trace.replica(0, "bias").size == res.rounds + 1
        assert res.trace.replica(0, "plurality-count")[-1] == 10_000

    def test_trajectory_mass_conserved(self):
        cfg = Configuration.biased(5_000, 4, 600)
        res = run_process(ThreeMajority(), cfg, rng=1, record=["counts"])
        assert (res.trace.replica(0, "counts").sum(axis=1) == 5_000).all()

    def test_monochromatic_start_is_instant(self):
        res = run_process(ThreeMajority(), Configuration.monochromatic(100, 3, 1), rng=0)
        assert res.converged
        assert res.rounds == 0
        assert res.winner == 1

    def test_max_rounds_respected(self):
        cfg = Configuration.balanced(10_000, 10)
        res = run_process(ThreeMajority(), cfg, rng=0, max_rounds=2)
        assert not res.converged
        assert res.rounds == 2
        assert res.winner is None
        assert not res.plurality_won

    def test_stop_at_plurality_fraction(self):
        cfg = Configuration.biased(20_000, 4, 2_000)
        res = run_process(
            ThreeMajority(), cfg, rng=0, stopping=PluralityFractionStop(0.5), max_rounds=10_000
        )
        plurality = res.trace.replica(0, "plurality-count")
        assert plurality[-1] >= 10_000
        assert not res.converged or plurality[-1] == 20_000

    def test_zero_agents_rejected(self):
        with pytest.raises(ValueError, match="zero agents"):
            run_process(ThreeMajority(), np.array([0, 0]), rng=0)

    def test_seed_reproducibility(self):
        cfg = Configuration.biased(5_000, 4, 400)
        a = run_process(ThreeMajority(), cfg, rng=123, record=["counts"])
        b = run_process(ThreeMajority(), cfg, rng=123, record=["counts"])
        assert a.rounds == b.rounds
        assert a.trace == b.trace

    def test_accepts_raw_counts(self):
        res = run_process(ThreeMajority(), np.array([900, 100]), rng=0)
        assert res.converged

    def test_extra_state_dynamics(self):
        res = run_process(UndecidedState(), Configuration([800, 200]), rng=0, max_rounds=10_000)
        assert res.converged
        assert res.final_counts.size == 2


class TestRunEnsemble:
    def test_basic_shape(self):
        cfg = Configuration.biased(5_000, 4, 800)
        ens = run_ensemble(ThreeMajority(), cfg, 16, rng=0)
        assert ens.replicas == 16
        assert ens.rounds.shape == (16,)
        assert ens.converged.all()
        assert ens.plurality_win_rate == 1.0
        assert ens.final_counts is not None
        assert ens.final_counts.shape == (16, 4)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            run_ensemble(ThreeMajority(), Configuration([5, 5]), 0, rng=0)

    @pytest.mark.parametrize(
        "k, kwargs",
        [
            (3, {"batch": True, "engine": "dense"}),
            (3, {"batch": True, "engine": "sparse"}),
            (128, {"batch": True, "engine": "auto"}),  # auto picks sparse at this k
            (3, {"batch": False, "engine": "dense"}),
        ],
        ids=["batched-dense", "batched-sparse", "batched-auto-large-k", "unbatched"],
    )
    def test_zero_agents_rejected(self, k, kwargs):
        # An empty population has no consensus to report: every runner path
        # raises the error run_process raises, instead of calling it converged.
        with pytest.raises(ValueError, match="cannot run a process with zero agents"):
            run_ensemble(ThreeMajority(), Configuration([0] * k), 3, rng=0, **kwargs)

    def test_non_converged_marked(self):
        cfg = Configuration.balanced(10_000, 8)
        ens = run_ensemble(ThreeMajority(), cfg, 4, max_rounds=2, rng=0)
        assert not ens.converged.any()
        assert (ens.winners == -1).all()
        assert np.isnan(ens.rounds_summary()["median"])

    def test_winner_distribution_voter(self):
        # Exact martingale: P(winner = 0) = 0.7.
        cfg = Configuration([35, 15])
        ens = run_ensemble(Voter(), cfg, 400, max_rounds=100_000, rng=5)
        assert ens.convergence_rate == 1.0
        assert abs(ens.plurality_win_rate - 0.7) < 0.08

    def test_batch_false_runs(self):
        cfg = Configuration.biased(2_000, 3, 400)
        ens = run_ensemble(ThreeMajority(), cfg, 5, rng=7, batch=False)
        assert ens.converged.all()
        assert ens.plurality_win_rate == 1.0

    def test_batch_false_accepts_generator_deterministically(self):
        # Regression: a passed Generator used to be silently discarded in
        # favour of OS entropy.  Now it spawns the per-replica streams, so
        # equal generator state gives equal results...
        cfg = Configuration.biased(2_000, 3, 400)
        a = run_ensemble(ThreeMajority(), cfg, 5, rng=np.random.default_rng(7), batch=False)
        b = run_ensemble(ThreeMajority(), cfg, 5, rng=np.random.default_rng(7), batch=False)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.final_counts, b.final_counts)
        # ...and matches the int-seed path (same root seed sequence).
        c = run_ensemble(ThreeMajority(), cfg, 5, rng=7, batch=False)
        assert np.array_equal(a.rounds, c.rounds)
        assert np.array_equal(a.final_counts, c.final_counts)

    def test_batch_statistics_match_unbatched(self):
        cfg = Configuration.biased(5_000, 4, 700)
        fast = run_ensemble(ThreeMajority(), cfg, 64, rng=1, batch=True)
        slow = run_ensemble(ThreeMajority(), cfg, 64, rng=2, batch=False)
        assert abs(fast.rounds[fast.converged].mean() - slow.rounds[slow.converged].mean()) < 2.0

    def test_extra_state_ensemble(self):
        cfg = Configuration.biased(2_000, 3, 500)
        ens = run_ensemble(UndecidedState(), cfg, 8, rng=0, max_rounds=10_000)
        assert ens.converged.all()
        assert ens.final_counts is not None
        assert ens.final_counts.shape == (8, 3)

    def test_rounds_summary_fields(self):
        cfg = Configuration.biased(2_000, 3, 500)
        ens = run_ensemble(ThreeMajority(), cfg, 8, rng=0)
        summary = ens.rounds_summary()
        assert set(summary) == {"mean", "median", "p90", "max"}
        assert summary["max"] >= summary["median"] >= 0

    def test_ensemble_result_empty_properties(self):
        fields = dict(
            rounds=np.array([], dtype=np.int64),
            winners=np.array([], dtype=np.int64),
            converged=np.array([], dtype=bool),
            plurality_color=0,
            max_rounds=10,
        )
        # Final counts and stop labels are part of every result.
        with pytest.raises(TypeError, match="final_counts"):
            EnsembleResult(**fields)
        ens = EnsembleResult(
            **fields,
            final_counts=np.zeros((0, 3), dtype=np.int64),
            stopped_by=np.array([], dtype=object),
        )
        assert np.isnan(ens.plurality_win_rate)
        assert ens.replicas == 0
        assert ens.stop_reasons() == {}
        assert np.isnan(ens.rounds_summary()["median"])

"""Tests for the pluggable observation layer: metrics, records, traces.

Three layers of evidence, mirroring the ``tests/test_counts_engines.py``
discipline for step kernels:

* **vectorization** — every registered metric's batched ``compute_many``
  must be bit-identical to a per-row (agent-side) scalar loop, property
  tested over hypothesis-generated count batches;
* **recording** — the vectorized counts-engine recording path of
  ``run_ensemble`` must agree bit for bit with recomputing each metric
  per replica from the recorded counts snapshots, and with the unbatched
  per-replica ``run_process`` assembly;
* **plumbing** — TraceSets stack/pad/digest deterministically, cadence
  thinning works, and the deprecation shims still serve the legacy
  fields.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    METRICS,
    Configuration,
    RecordSpec,
    ThreeMajority,
    TraceSet,
    run_ensemble,
    run_process,
)
from repro.core.metrics import TraceRecorder, as_record_spec, stack_traces

ALL_METRICS = tuple(METRICS.names())
SCALAR_METRICS = tuple(
    name for name in ALL_METRICS if not METRICS.build(name).vector
)


def _counts_batches():
    """Hypothesis strategy: (R, k) int64 count batches with positive mass."""
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(min_value=0, max_value=10_000), min_size=k, max_size=k),
            min_size=1,
            max_size=8,
        )
    )


class TestMetricVectorization:
    """compute_many over a batch ≡ per-row compute — bit-identical."""

    @pytest.mark.parametrize("name", ALL_METRICS)
    @given(rows=_counts_batches())
    def test_batch_equals_per_row_loop(self, name, rows):
        counts = np.asarray(rows, dtype=np.int64)
        if counts.sum() == 0:
            counts[0, 0] = 1  # metrics divide by n; keep mass positive
        n = int(counts.sum(axis=1).max())
        metric = METRICS.build(name)
        batched = metric.compute_many(counts, n)
        for i, row in enumerate(counts):
            scalar = metric.compute(row, n)
            assert np.array_equal(np.asarray(batched[i]), np.asarray(scalar)), (
                name,
                row,
            )
        assert batched.dtype == np.dtype(metric.dtype)

    def test_known_values(self):
        counts = np.array([[6, 3, 1], [10, 0, 0], [4, 4, 2]])
        n = 10
        assert METRICS.build("plurality-count").compute_many(counts, n).tolist() == [6, 10, 4]
        assert METRICS.build("plurality-fraction").compute_many(counts, n).tolist() == [
            0.6,
            1.0,
            0.4,
        ]
        assert METRICS.build("bias").compute_many(counts, n).tolist() == [3, 10, 0]
        assert METRICS.build("support-size").compute_many(counts, n).tolist() == [3, 1, 3]
        tv = METRICS.build("tv-monochromatic").compute_many(counts, n)
        assert tv.tolist() == [0.4, 0.0, 0.6]
        entropy = METRICS.build("entropy").compute_many(counts, n)
        assert entropy[1] == 0.0  # monochromatic → zero entropy
        assert entropy[2] > entropy[0]  # flatter distribution → more entropy
        snap = METRICS.build("counts").compute_many(counts, n)
        assert np.array_equal(snap, counts) and snap is not counts

    def test_metrics_never_mutate_input(self):
        counts = np.array([[5, 3, 2]])
        frozen = counts.copy()
        for name in ALL_METRICS:
            METRICS.build(name).compute_many(counts, 10)
        assert np.array_equal(counts, frozen)


class TestVectorizedEnsembleRecording:
    """The batched counts-engine recording path vs an agent-side loop.

    One batched ``run_ensemble`` records every scalar metric plus the full
    counts snapshot; each scalar column must equal recomputing the metric
    replica by replica, round by round, from the snapshots — same seed,
    same trajectory, two independent computation paths.
    """

    def test_batched_columns_match_per_replica_recomputation(self):
        cfg = Configuration.biased(6_000, 4, 700)
        record = RecordSpec(metrics=("counts",) + SCALAR_METRICS)
        ens = run_ensemble(ThreeMajority(), cfg, 7, rng=11, record=record, max_rounds=2_000)
        trace = ens.trace
        n = cfg.n
        for name in SCALAR_METRICS:
            metric = METRICS.build(name)
            column = trace[name]
            for i in range(trace.replicas):
                valid = int(trace.n_recorded[i])
                snapshots = trace["counts"][i, :valid]
                expected = [metric.compute(snap, n) for snap in snapshots]
                assert np.array_equal(column[i, :valid], np.asarray(expected)), (name, i)
                # Padding past the replica's stop round stays zero.
                assert not column[i, valid:].any(), (name, i)

    @pytest.mark.parametrize("engine", ["counts", "agent"])
    def test_recording_layer_engine_independent(self, engine):
        """Where both step engines exist, each engine's trace must equal the
        agent-side per-replica recomputation from its own counts snapshots:
        the observation layer is a pure function of the trajectory, whatever
        engine produced it."""
        from repro import majority_rule
        from repro.core.threeinput import ThreeInputRule

        base = majority_rule()
        dyn = ThreeInputRule(base.pair_choice, base.distinct_choice, base.name, engine=engine)
        cfg = Configuration.biased(800, 3, 150)
        ens = run_ensemble(
            dyn, cfg, 4, rng=5, record=["counts", "bias", "entropy"], max_rounds=300
        )
        trace = ens.trace
        for name in ("bias", "entropy"):
            metric = METRICS.build(name)
            for i in range(trace.replicas):
                valid = int(trace.n_recorded[i])
                expected = [metric.compute(snap, cfg.n) for snap in trace["counts"][i, :valid]]
                assert np.array_equal(trace[name][i, :valid], np.asarray(expected))

    def test_unbatched_assembly_matches_run_process_traces(self):
        cfg = Configuration.biased(4_000, 3, 500)
        record = ["bias", "counts"]
        ens = run_ensemble(
            ThreeMajority(), cfg, 5, rng=2, record=record, max_rounds=1_000, batch=False
        )
        from repro.core.rng import spawn_streams

        streams = spawn_streams(2, 5)
        singles = [
            run_process(ThreeMajority(), cfg, record=record, max_rounds=1_000, rng=stream)
            for stream in streams
        ]
        assert ens.trace == stack_traces([r.trace for r in singles])

    def test_every_thinning(self):
        cfg = Configuration.biased(6_000, 4, 800)
        every = run_ensemble(
            ThreeMajority(), cfg, 4, rng=9, record=RecordSpec(("bias",), every=1)
        )
        thinned = run_ensemble(
            ThreeMajority(), cfg, 4, rng=9, record=RecordSpec(("bias",), every=3)
        )
        assert np.array_equal(thinned.rounds, every.rounds)  # observation is passive
        assert np.array_equal(thinned.trace.rounds, every.trace.rounds[::3])
        assert np.array_equal(thinned.trace["bias"], every.trace["bias"][:, ::3])

    def test_early_stopping_truncates_rows(self):
        from repro import PluralityFractionStop

        cfg = Configuration.biased(20_000, 4, 2_000)
        ens = run_ensemble(
            ThreeMajority(),
            cfg,
            8,
            rng=0,
            record=["plurality-count"],
            stopping=PluralityFractionStop(0.5),
            max_rounds=5_000,
        )
        trace = ens.trace
        assert np.array_equal(trace.n_recorded, ens.rounds + 1)
        for i in range(trace.replicas):
            series = trace.replica(i, "plurality-count")
            assert series[-1] >= 0.5 * cfg.n or ens.stopped_by[i] == "monochromatic"


class TestTraceSet:
    def _trace(self, seed=0, replicas=3):
        cfg = Configuration.biased(3_000, 3, 400)
        return run_ensemble(
            ThreeMajority(), cfg, replicas, rng=seed, record=["bias", "counts"]
        ).trace

    def test_equality_and_digest_are_content_based(self):
        a, b = self._trace(), self._trace()
        assert a == b and a is not b
        assert a.digest() == b.digest()
        c = self._trace(seed=1)
        assert a != c
        assert a.digest() != c.digest()

    def test_digest_sensitive_to_every_array(self):
        a = self._trace()
        mutated = a.copy()
        mutated.data["bias"][0, 0] += 1
        assert a.digest() != mutated.digest()

    def test_copy_is_deep(self):
        a = self._trace()
        b = a.copy()
        b.data["counts"][0, 0, 0] += 5
        assert a != b

    def test_unknown_metric_lookup_names_recorded_ones(self):
        a = self._trace()
        with pytest.raises(KeyError, match="recorded: bias, counts"):
            a["entropy"]

    def test_valid_mask_matches_n_recorded(self):
        a = self._trace(replicas=5)
        mask = a.valid_mask()
        assert mask.shape == (5, a.n_rounds)
        assert np.array_equal(mask.sum(axis=1), a.n_recorded)

    def test_stack_traces_rejects_mismatched(self):
        a = self._trace()
        cfg = Configuration.biased(3_000, 3, 400)
        other = run_ensemble(ThreeMajority(), cfg, 2, rng=0, record=["bias"]).trace
        with pytest.raises(ValueError, match="identical"):
            stack_traces([a, other])


class TestRecordSpec:
    def test_round_trip(self):
        spec = RecordSpec(metrics=("bias", "counts"), every=4)
        assert RecordSpec.from_dict(spec.to_dict()) == spec

    def test_as_record_spec_spellings(self):
        assert as_record_spec(None) is None
        assert as_record_spec("bias") == RecordSpec(("bias",))
        assert as_record_spec(["bias", "counts"]) == RecordSpec(("bias", "counts"))
        assert as_record_spec({"metrics": ["bias"], "every": 2}) == RecordSpec(("bias",), 2)
        spec = RecordSpec(("entropy",))
        assert as_record_spec(spec) is spec
        with pytest.raises(ValueError, match="record"):
            as_record_spec(42)

    def test_validation(self):
        with pytest.raises(ValueError, match="every"):
            RecordSpec(("bias",), every=0)
        with pytest.raises(ValueError, match="duplicates"):
            RecordSpec(("bias", "bias"))
        with pytest.raises(KeyError, match="unknown metric"):
            RecordSpec(("nope",)).resolve()

    def test_with_metric_idempotent(self):
        spec = RecordSpec(("bias",))
        assert spec.with_metric("bias") is spec
        assert spec.with_metric("counts").metrics == ("bias", "counts")


class TestTraceRecorderInternals:
    def test_zero_metric_record_tracks_rounds_only(self):
        recorder = TraceRecorder(RecordSpec(), n=10, k=2, replicas=2)
        recorder.observe(0, np.array([[6, 4], [6, 4]]))
        trace = recorder.finish()
        assert trace.metrics == ()
        assert trace.n_rounds == 1
        assert trace.n_recorded.tolist() == [1, 1]

    def test_off_cadence_rounds_skipped(self):
        recorder = TraceRecorder(RecordSpec(("bias",), every=2), n=10, k=2, replicas=1)
        for t in range(5):
            recorder.observe(t, np.array([[6, 4]]))
        trace = recorder.finish()
        assert trace.rounds.tolist() == [0, 2, 4]


class TestStreamingTraceConsumers:
    def test_trace_moments_matches_direct_mean(self):
        from repro.analysis import trace_moments

        cfg = Configuration.biased(4_000, 3, 500)
        ens = run_ensemble(ThreeMajority(), cfg, 6, rng=4, record=["counts"], max_rounds=1)
        nxt = ens.trace["counts"][:, 1, :]
        moments = trace_moments(ens.trace, "counts", round_index=1)
        assert np.array_equal(moments.mean, nxt.mean(axis=0))
        assert moments.count == 6

    def test_trace_moments_skips_padded_replicas(self):
        from repro.analysis import trace_moments

        cfg = Configuration.biased(6_000, 4, 800)
        ens = run_ensemble(ThreeMajority(), cfg, 8, rng=0, record=["bias"])
        trace = ens.trace
        last = trace.n_rounds - 1
        moments = trace_moments(trace, "bias", round_index=last)
        still_running = int((trace.n_recorded > last).sum())
        assert moments.count == still_running

    def test_trace_round_means_masks_finished_replicas(self):
        from repro.analysis import trace_round_means

        cfg = Configuration.biased(6_000, 4, 800)
        ens = run_ensemble(ThreeMajority(), cfg, 8, rng=0, record=["tv-monochromatic"])
        out = trace_round_means(ens.trace, "tv-monochromatic")
        assert out["rounds"].size == ens.trace.n_rounds
        assert out["replicas"][0] == 8
        mask = ens.trace.valid_mask()
        t = ens.trace.n_rounds - 1
        manual = ens.trace["tv-monochromatic"][mask[:, t], t].mean()
        assert out["mean"][t] == pytest.approx(manual)

    def test_trace_round_means_rejects_vector_metric(self):
        from repro.analysis import trace_round_means

        cfg = Configuration.biased(1_000, 3, 100)
        ens = run_ensemble(ThreeMajority(), cfg, 2, rng=0, record=["counts"], max_rounds=5)
        with pytest.raises(ValueError, match="vector"):
            trace_round_means(ens.trace, "counts")

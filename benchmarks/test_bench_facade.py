"""Facade-dispatch and observation-layer benchmarks.

The declarative layer must be free: resolving a ScenarioSpec through the
registries is a few dict lookups plus object construction, amortised over
a whole replica ensemble.  The two timed benches land in
``BENCH_results.json`` (tagged ``api=facade`` / ``api=direct``) so the
dispatch cost is tracked across PRs, and the guard test asserts the
facade makes exactly the direct call — and, in a timed session, that its
overhead stays under 5%.

Same deal for the metric-recording layer of :mod:`repro.core.metrics`:
a run without a record builds no recorder, and, timed, activating the
recorder with an *empty* metric list must stay within 2% of the
un-recorded path (guard test); the timed benches (tagged
``record=none`` / ``record=plurality-fraction`` at n=10⁵, k=8) publish
the per-round cost of one scalar metric into ``BENCH_results.json``.
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.process as process_module
import repro.scenario as scenario_module
from repro import RecordSpec, ScenarioSpec, ThreeMajority, run_ensemble, simulate_ensemble
from repro.experiments.workloads import paper_biased

N, K, REPLICAS, MAX_ROUNDS, SEED = 200_000, 16, 64, 2_000, 7

SPEC = ScenarioSpec(
    dynamics="3-majority",
    initial="paper-biased",
    n=N,
    k=K,
    replicas=REPLICAS,
    max_rounds=MAX_ROUNDS,
    seed=SEED,
)

#: The issue-mandated observation-cost point: one scalar metric at
#: n = 1e5, k = 8.
REC_N, REC_K, REC_REPLICAS, REC_SEED = 100_000, 8, 64, 3


def _direct():
    return run_ensemble(
        ThreeMajority(), paper_biased(N, K), REPLICAS, max_rounds=MAX_ROUNDS, rng=SEED
    )


def _facade():
    return simulate_ensemble(SPEC)


def _recording_run(record):
    return run_ensemble(
        ThreeMajority(),
        paper_biased(REC_N, REC_K),
        REC_REPLICAS,
        max_rounds=2_000,
        record=record,
        rng=REC_SEED,
    )


def _guard_run(record):
    """Fixed-length workload for the overhead guard: the voter model needs
    Θ(n) rounds from a balanced start, so at 400 ≪ n rounds no replica
    ever absorbs — every run steps exactly ``max_rounds`` rounds for all
    replicas and the wall-time comparison is apples to apples."""
    from repro import Configuration, Voter

    return run_ensemble(
        Voter(),
        Configuration.balanced(REC_N, REC_K),
        256,
        max_rounds=400,
        record=record,
        rng=REC_SEED,
    )


class TestFacadeDispatch:
    def test_direct_run_ensemble(self, benchmark):
        benchmark.extra_info.update(api="direct", n=N, k=K, replicas=REPLICAS)
        ens = benchmark(_direct)
        assert ens.convergence_rate == 1.0

    def test_facade_simulate_ensemble(self, benchmark):
        benchmark.extra_info.update(api="facade", n=N, k=K, replicas=REPLICAS)
        ens = benchmark(_facade)
        assert ens.convergence_rate == 1.0

    def test_facade_overhead_under_5_percent(self, count_calls, monkeypatch, timed_guards):
        """The guard: the facade is one direct ``run_ensemble`` call.

        ``simulate_ensemble`` calls ``run_ensemble`` exactly once, with the
        arguments the direct call passes, and returns the same ensemble.
        In a timed session, interleaved best-of-N wall times must also
        show facade <= 1.05 × direct: interleaving (direct, facade,
        direct, ...) decorrelates clock-frequency / load drift from the
        comparison, best-of over many repeats discards scheduler noise,
        and one call is a few ms, two orders of magnitude above the actual
        resolution cost (~tens of µs).
        """
        calls = count_calls(scenario_module, "run_ensemble")
        facade = _facade()
        assert len(calls) == 1
        (dynamics, initial, replicas), kwargs = calls[0]
        assert type(dynamics) is ThreeMajority and dynamics.resolved_engine(K) == "counts"
        assert dynamics.tie_break == "first"
        np.testing.assert_array_equal(initial.counts, paper_biased(N, K).counts)
        assert replicas == REPLICAS
        assert kwargs == dict(
            max_rounds=MAX_ROUNDS, adversary=None, stopping=None, record=None,
            rng=SEED, batch=True, engine="auto",
        )
        monkeypatch.undo()
        direct = _direct()
        np.testing.assert_array_equal(facade.rounds, direct.rounds)
        np.testing.assert_array_equal(facade.final_counts, direct.final_counts)
        if not timed_guards:
            return

        def timed(fn) -> float:
            start = time.perf_counter()
            ens = fn()
            elapsed = time.perf_counter() - start
            assert ens.convergence_rate == 1.0
            return elapsed

        timed(_direct), timed(_facade)  # warm caches (registration, tables, ...)
        direct = facade = float("inf")
        for _ in range(11):
            direct = min(direct, timed(_direct))
            facade = min(facade, timed(_facade))
        overhead = facade / direct - 1.0
        assert overhead < 0.05, (
            f"facade dispatch overhead {overhead:.1%} exceeds 5% "
            f"(direct {direct * 1e3:.2f} ms, facade {facade * 1e3:.2f} ms)"
        )


class TestRecordingOverhead:
    def test_bench_record_none(self, benchmark):
        benchmark.extra_info.update(
            record="none", n=REC_N, k=REC_K, replicas=REC_REPLICAS
        )
        ens = benchmark(lambda: _recording_run(None))
        assert ens.convergence_rate == 1.0

    def test_bench_record_one_scalar_metric(self, benchmark):
        """Per-round cost of one scalar metric at n=1e5, k=8.

        ``(this - record=none) / (mean rounds × replicas)`` in
        ``BENCH_results.json`` is the per-replica-round price of
        ``plurality-fraction``; ``rounds_total`` in extra_info provides the
        divisor.
        """
        probe = _recording_run(["plurality-fraction"])
        benchmark.extra_info.update(
            record="plurality-fraction",
            n=REC_N,
            k=REC_K,
            replicas=REC_REPLICAS,
            rounds_total=int(probe.trace.n_recorded.sum()),
        )
        ens = benchmark(lambda: _recording_run(["plurality-fraction"]))
        assert ens.trace is not None and ens.trace.metrics == ("plurality-fraction",)

    def test_empty_record_overhead_under_2_percent(self, count_calls, monkeypatch, timed_guards):
        """The guard: a run without a record builds no recorder.

        ``record=None`` constructs no ``TraceRecorder`` (an empty
        ``RecordSpec()`` constructs one), so none of the recording
        machinery runs.  In a timed session, ``record=RecordSpec()`` —
        the whole machinery (cadence checks, per-round bookkeeping, trace
        assembly) with zero metrics — must also stay within 2% of
        ``record=None`` in interleaved best-of-N wall times over a fixed
        400-round workload.
        """
        recorders = count_calls(process_module, "TraceRecorder")
        assert not _guard_run(None).converged.any()
        assert recorders == []
        assert _guard_run(RecordSpec()).trace is not None
        assert len(recorders) == 1
        monkeypatch.undo()
        if not timed_guards:
            return

        def timed(record) -> float:
            start = time.perf_counter()
            ens = _guard_run(record)
            elapsed = time.perf_counter() - start
            assert not ens.converged.any()  # fixed-length: nobody absorbs
            return elapsed

        timed(None), timed(RecordSpec())  # warm caches
        # Time-adjacent pairs share thermal/clock state, so the best paired
        # ratio isolates the recorder cost from slow frequency drift that
        # independent best-ofs would alias into the comparison.
        ratios = []
        for _ in range(9):
            bare = timed(None)
            empty = timed(RecordSpec())
            ratios.append(empty / bare)
        overhead = min(ratios) - 1.0
        assert overhead < 0.02, (
            f"empty-record overhead {overhead:.1%} exceeds 2% "
            f"(paired ratios: {', '.join(f'{r:.3f}' for r in ratios)})"
        )

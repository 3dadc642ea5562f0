"""Benchmarks for the active-support sparse ensemble engine.

The acceptance pair of this PR: post-coalescence ensemble rounds at
k = 4096 must be >= 10x faster sparse than dense (both records land in
``BENCH_results.json`` tagged ``engine``/``n``/``k``/``support``), and a
k = 2^16, n = 10^6, 128-replica ensemble must complete in seconds — the
regime the paper's Theorem 3 quantifies over (``k = n^ε``) and the dense
layout cannot touch.

Also here: the serve-cache trace-packing record (valid prefixes +
``np.savez_compressed`` vs the old dense ``np.savez`` layout) and the
guard that the dense runner's empty-stopping fast path stayed free after
the scratch-reuse cleanup.

The guards count what each engine does (columns stepped, rules
evaluated, rounds stepped); their wall-clock ratios run in timed
sessions only (``REPRO_BENCH_WRITE=1``, see ``conftest.py``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np
import pytest

from repro import (
    Configuration,
    HPlurality,
    ResultCache,
    RoundBudgetStop,
    ScenarioSpec,
    ThreeMajority,
    Voter,
    run_ensemble,
    simulate_ensemble,
)

#: The post-coalescence fixture: a handful of survivors inside a large
#: dead color space — exactly what an ensemble looks like after the
#: coalescence prefix of a k = n^ε run.
K, SUPPORT, N, REPLICAS, ROUNDS = 4096, 8, 100_000, 128, 32


def _post_coalescence(k: int = K, support: int = SUPPORT, n: int = N) -> Configuration:
    counts = np.zeros(k, dtype=np.int64)
    positions = np.linspace(5, k - 7, support).astype(np.int64)
    masses = np.full(support, n // support, dtype=np.int64)
    masses[0] += n - int(masses.sum())
    counts[positions] = masses
    return Configuration(counts)


class _ColumnProbe(ThreeMajority):
    """3-majority that logs each batch's (columns stepped, live columns)."""

    def __init__(self):
        super().__init__()
        self.widths: list[tuple[int, int]] = []

    def step_many(self, counts, rng):
        self.widths.append((counts.shape[1], int(np.count_nonzero(counts.any(axis=0)))))
        return super().step_many(counts, rng)


def _fixed_rounds(engine: str, dynamics=None, rounds: int = ROUNDS, seed: int = 7):
    """A fixed-length ensemble burst (round-budget stop, no absorption)."""
    return run_ensemble(
        dynamics if dynamics is not None else ThreeMajority(),
        _post_coalescence(),
        REPLICAS,
        rng=seed,
        max_rounds=rounds + 1,
        stopping=RoundBudgetStop(rounds),
        engine=engine,
    )


class TestSparseVsDensePostCoalescence:
    """The >= 10x acceptance pair at k = 4096, support = 8."""

    def test_dense_ensemble_rounds(self, benchmark):
        benchmark.extra_info.update(
            engine="dense", n=N, k=K, support=SUPPORT, replicas=REPLICAS, rounds=ROUNDS
        )
        ens = benchmark(lambda: _fixed_rounds("dense"))
        assert (ens.rounds == ROUNDS).all()

    def test_sparse_ensemble_rounds(self, benchmark):
        benchmark.extra_info.update(
            engine="sparse", n=N, k=K, support=SUPPORT, replicas=REPLICAS, rounds=ROUNDS
        )
        ens = benchmark(lambda: _fixed_rounds("sparse"))
        assert (ens.rounds == ROUNDS).all()

    def test_sparse_at_least_10x_faster_than_dense(self, timed_guards):
        """Counted: no sparse round steps more than twice the live
        support's columns (the 0.5 re-compaction hysteresis), and every
        dense round steps all k.  Timed, in a timed session: interleaved
        best-of-N, like the facade guard; the compacted working set is
        512x narrower, so 10x is a conservative floor."""
        for engine in ("sparse", "dense"):
            probe = _ColumnProbe()
            assert (_fixed_rounds(engine, dynamics=probe).rounds == ROUNDS).all()
            assert len(probe.widths) == ROUNDS
            for width, live in probe.widths:
                assert width <= 2 * live if engine == "sparse" else width == K
        if not timed_guards:
            return

        def timed(engine: str) -> float:
            start = time.perf_counter()
            ens = _fixed_rounds(engine)
            elapsed = time.perf_counter() - start
            assert (ens.rounds == ROUNDS).all()
            return elapsed

        timed("dense"), timed("sparse")  # warm-up
        dense = sparse = float("inf")
        for _ in range(5):
            dense = min(dense, timed("dense"))
            sparse = min(sparse, timed("sparse"))
        ratio = dense / sparse
        assert ratio >= 10.0, (
            f"sparse speedup only {ratio:.1f}x "
            f"(dense {dense * 1e3:.1f} ms, sparse {sparse * 1e3:.1f} ms)"
        )

    def test_hplurality_sparse_recovers_exact_law(self, benchmark):
        # The exact law runs at any width, so dense auto at k = 4096 is
        # counts too, but its law costs O(k h³ log h) per row; sparse hands
        # it a width-8 axis.
        dyn = HPlurality(5)
        assert dyn.resolved_engine(K) == "counts"
        assert dyn.resolved_engine(SUPPORT) == "counts"
        benchmark.extra_info.update(
            engine="sparse", dynamics="5-plurality", n=N, k=K, support=SUPPORT,
            replicas=REPLICAS, rounds=ROUNDS,
        )
        ens = benchmark(lambda: _fixed_rounds("sparse", dynamics=dyn))
        # 5 samples coalesce much faster than 3: replicas may absorb
        # before the budget; either way every replica retired validly.
        assert (ens.converged | (ens.rounds == ROUNDS)).all()


class TestLargeKCompletes:
    """k = 2^16, n = 10^6: the regime the ROADMAP calls impractical.

    A geometric-tail start with ~1.9k live colors inside 2^16 slots, run
    by 128 replicas all the way to a 90% plurality (~260 rounds each):
    completes in seconds on the sparse engine (measured ~5 s), where the
    dense layout pays 128 x 65536 cells for every one of those rounds
    (extrapolating the dense k = 4096 record: minutes, plus 64 GiB-class
    trace pressure if recorded).
    """

    def test_k65536_n1e6_ensemble_completes(self, benchmark):
        k, n, replicas = 2**16, 1_000_000, 128
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="geometric-tail",
            initial_params={"ratio": 0.995},
            n=n,
            k=k,
            replicas=replicas,
            seed=0,
            engine="sparse",
            max_rounds=20_000,
            stopping={"rule": "plurality-fraction", "fraction": 0.9},
        )
        support = int((spec.resolve().initial.counts > 0).sum())
        benchmark.extra_info.update(
            engine="sparse", n=n, k=k, support=support, replicas=replicas
        )
        ens = benchmark.pedantic(
            lambda: self._run_and_check(spec, n, k), rounds=1, iterations=1
        )
        assert (ens.stopped_by == "plurality-fraction").all()

    @staticmethod
    def _run_and_check(spec, n, k):
        ens = simulate_ensemble(spec)
        assert ens.final_counts.shape[1] == k
        assert (ens.final_counts.sum(axis=1) == n).all()
        assert (ens.final_counts.max(axis=1) >= int(0.9 * n)).all()
        return ens


class TestTracePackingOnDisk:
    """Serve-cache trace density: packed+compressed vs the dense layout."""

    def test_packed_trace_entry_size(self, benchmark):
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=50_000,
            k=64,
            replicas=64,
            seed=2,
            max_rounds=2_000,
            record={"metrics": ["counts", "bias"], "every": 1},
        )
        result = simulate_ensemble(spec)
        trace = result.trace
        dense_bytes = sum(col.nbytes for col in trace.data.values())
        valid_cells = int(trace.n_recorded.sum())
        total_cells = trace.replicas * trace.n_rounds

        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            key = cache.key_for(spec)

            def store():
                cache.put(key, result)
                return os.path.getsize(os.path.join(root, key + ".entry"))

            packed_bytes = benchmark(store)
            replay = ResultCache(root).get(key)
            assert replay.trace.digest() == trace.digest()
        benchmark.extra_info.update(
            dense_trace_bytes=dense_bytes,
            packed_entry_bytes=packed_bytes,
            reduction_factor=round(dense_bytes / packed_bytes, 2),
            valid_fraction=round(valid_cells / total_cells, 3),
            replicas=spec.replicas,
            k=spec.k,
        )
        # Valid-prefix packing + deflate must beat the dense blocks by a
        # comfortable factor on a heterogeneously-stopping ensemble.
        assert packed_bytes * 3 < dense_bytes


class _StepCounter(Voter):
    """The voter model, counting its batch steps."""

    def __init__(self):
        self.steps = 0

    def step_many(self, counts, rng):
        self.steps += 1
        return super().step_many(counts, rng)


class TestStoppingFastPath:
    """Guard: the empty-stopping (stopping=None) round loop costs nothing
    extra versus a never-firing rule — the scratch-reuse cleanup must not
    have smuggled work into the common path."""

    def _burst(self, stopping, dynamics=None):
        return run_ensemble(
            dynamics if dynamics is not None else Voter(),
            Configuration.balanced(100_000, 8),
            256,
            max_rounds=300,
            stopping=stopping,
            rng=3,
        )

    def test_no_stopping_not_slower_than_never_firing_rule(
        self, count_calls, monkeypatch, timed_guards
    ):
        """Counted: with ``stopping=None`` the loop evaluates no stopping
        rule, and both runs step all 300 rounds.  Timed, in a timed
        session: the bare path is never meaningfully slower than the
        ruled one."""
        never = RoundBudgetStop(10**9)
        evaluations = count_calls(RoundBudgetStop, "met_many")
        for stopping, expected in ((None, 0), (never, 301)):
            dynamics = _StepCounter()
            ens = self._burst(stopping, dynamics)
            assert not ens.converged.any() and (ens.rounds == 300).all()
            assert dynamics.steps == 300
            assert len(evaluations) == expected  # rounds t = 0..300
        monkeypatch.undo()
        if not timed_guards:
            return

        def timed(stopping) -> float:
            start = time.perf_counter()
            ens = self._burst(stopping)
            elapsed = time.perf_counter() - start
            assert not ens.converged.any()
            return elapsed

        timed(None), timed(never)  # warm-up
        bare = ruled = float("inf")
        for _ in range(7):
            bare = min(bare, timed(None))
            ruled = min(ruled, timed(never))
        # The bare path must never be meaningfully slower than the ruled
        # one (generous slack: these are ~100 ms runs, noise is real).
        assert bare <= ruled * 1.10, (
            f"empty-stopping path {bare * 1e3:.1f} ms vs never-firing rule "
            f"{ruled * 1e3:.1f} ms"
        )

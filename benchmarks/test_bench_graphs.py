"""Benchmarks for the graph substrate: batched engine + CSR packing.

The acceptance pair for the replica-batched graph engine: stepping an
(R, n) color matrix through one vectorized CSR gather per round must
beat the retired per-replica Python loop (re-implemented inline below,
since every graph runner now steps on the shared loops)
by >= 5x at n = 10^4, R = 64.  The guard counts that the batched engine
reduces and histograms once per round for all live replicas; a timed
session (``REPRO_BENCH_WRITE=1``) also checks the ratio, and the JSON
records both sides and the ratio so the trajectory is tracked across PRs.
"""

from __future__ import annotations

import time

import networkx as nx
import numpy as np
import pytest

import repro.graphs.ensemble as ensemble_module
from repro import Configuration, ThreeMajority
from repro.core.rng import spawn_streams
from repro.core.samplers import row_plurality
from repro.graphs import GraphKernel, Topology, random_regular, run_graph_ensemble
from repro.graphs import random_coloring

N, REPLICAS, ROUNDS, K = 10_000, 64, 8, 32


@pytest.fixture(scope="module")
def topology():
    return random_regular(N, 8, seed=0)


@pytest.fixture(scope="module")
def config():
    # Near-balanced at k = 32: far from consensus, so every replica runs
    # the full ROUNDS budget in both implementations (no early retirement
    # skewing the comparison).
    return Configuration.biased(N, K, 200)


def _retired_per_replica_loop(topology, config, replicas, rounds, seed):
    """The pre-engine implementation: one Python loop per replica.

    Per replica per round: CSR picks, color gather, row-wise plurality,
    and the bincount the old history/stop bookkeeping performed.
    """
    gens = spawn_streams(seed, replicas)
    finals = np.empty((replicas, config.k), dtype=np.int64)
    for r, gen in enumerate(gens):
        colors = random_coloring(topology, config, gen)
        for _ in range(rounds):
            picks = topology.sample_neighbors(3, gen)
            seen = colors[picks]
            colors = row_plurality(seen, config.k, gen)
            counts = np.bincount(colors, minlength=config.k)
        finals[r] = counts
    return finals


def _batched(topology, config, replicas, rounds, seed):
    ens = run_graph_ensemble(
        ThreeMajority(), topology, config, replicas, max_rounds=rounds, rng=seed
    )
    assert (ens.rounds == rounds).all(), "a replica converged; fixture too easy"
    return ens


class TestBatchedGraphEngine:
    def test_batched_ensemble_n1e4_r64(self, benchmark, topology, config):
        benchmark.extra_info.update(
            engine="graph-batched", n=N, k=K, replicas=REPLICAS, rounds=ROUNDS
        )
        benchmark.pedantic(
            lambda: _batched(topology, config, REPLICAS, ROUNDS, 1), rounds=3, iterations=1
        )

    def test_per_replica_loop_n1e4_r64(self, benchmark, topology, config):
        benchmark.extra_info.update(
            engine="graph-per-replica", n=N, k=K, replicas=REPLICAS, rounds=ROUNDS
        )
        benchmark.pedantic(
            lambda: _retired_per_replica_loop(topology, config, REPLICAS, ROUNDS, 1),
            rounds=3,
            iterations=1,
        )

    def test_batched_vs_per_replica_speedup(
        self, benchmark, topology, config, count_calls, monkeypatch, timed_guards
    ):
        """Counted: one reduce and one histogram per round for all live
        replicas, not one per replica.  Timed, in a timed session: the
        >= 5x acceptance floor, recorded as extra_info."""
        real_kernel = ensemble_module.graph_kernel
        reduces = []

        def counted_kernel(dynamics, k):
            kernel = real_kernel(dynamics, k)

            def reduce(own, seen, rng):
                reduces.append(seen.shape[0])
                return kernel.reduce(own, seen, rng)

            return GraphKernel(kernel.h, reduce, kernel.consumes_rng)

        monkeypatch.setattr(ensemble_module, "graph_kernel", counted_kernel)
        histograms = count_calls(ensemble_module, "row_counts_dense")
        _batched(topology, config, REPLICAS, ROUNDS, 1)
        assert reduces == [REPLICAS * N] * ROUNDS
        assert len(histograms) == ROUNDS + 1  # t = 0, then once per round
        assert all(args[0].shape == (REPLICAS, N) for args, _ in histograms)
        monkeypatch.undo()

        batched = lambda: _batched(topology, config, REPLICAS, ROUNDS, 1)  # noqa: E731
        if timed_guards:
            self._assert_speedup(benchmark, batched, topology, config)
        benchmark.pedantic(batched, rounds=1, iterations=1)

    @staticmethod
    def _assert_speedup(benchmark, batched, topology, config):
        def timed(fn) -> float:
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        loop = lambda: _retired_per_replica_loop(  # noqa: E731
            topology, config, REPLICAS, ROUNDS, 1
        )
        timed(batched), timed(loop)  # warm-up
        t_batched = t_loop = float("inf")
        for _ in range(3):
            t_batched = min(t_batched, timed(batched))
            t_loop = min(t_loop, timed(loop))
        ratio = t_loop / t_batched
        benchmark.extra_info.update(
            n=N,
            k=K,
            replicas=REPLICAS,
            rounds=ROUNDS,
            per_replica_ms=t_loop * 1e3,
            batched_ms=t_batched * 1e3,
            speedup=ratio,
        )
        assert ratio >= 5.0, (
            f"batched graph engine speedup only {ratio:.1f}x "
            f"(loop {t_loop * 1e3:.0f} ms, batched {t_batched * 1e3:.0f} ms)"
        )


class TestCsrPacking:
    """from_networkx is now an edge-array sorted-COO build."""

    @pytest.fixture(scope="class")
    def nx_graph(self):
        return nx.random_regular_graph(8, 20_000, seed=1)

    def test_from_networkx_n2e4(self, benchmark, nx_graph):
        benchmark.extra_info.update(n=20_000, d=8)
        topo = benchmark(lambda: Topology.from_networkx(nx_graph))
        assert topo.n == 20_000
        assert (topo.degrees == 9).all()  # 8 neighbors + self-loop

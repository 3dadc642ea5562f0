"""Serving-substrate benchmarks: cold vs warm batch execution.

The whole point of ``repro.serve`` is that repeated scenario traffic stops
paying for simulation: a warm ``run_batch`` over a request list is pure
cache lookups.  Two timed benches land in ``BENCH_results.json`` (tagged
``path=cold`` / ``path=warm``) so the cache's value is tracked across PRs,
and the guard test asserts that a warm batch runs and resolves nothing —
and, in a timed session, that it is at least 10× faster than the cold
one — the acceptance bar for the cache being worth its complexity.
"""

from __future__ import annotations

import shutil
import time

import repro.serve.executor as executor_module
from repro import ScenarioSpec, run_batch
from repro.serve.cache import ResultCache

N, K, REPLICAS, SEEDS, DUPES = 40_000, 8, 32, 4, 3

#: SEEDS unique scenarios, each requested DUPES times (typical of sweep
#: traffic re-requesting the same points).
SPECS = [
    ScenarioSpec(
        dynamics="3-majority",
        initial="paper-biased",
        n=N,
        k=K,
        replicas=REPLICAS,
        seed=seed,
        stopping={"rule": "plurality-fraction", "fraction": 0.9},
    )
    for seed in range(SEEDS)
] * DUPES


def _cold(root) -> float:
    """One cold batch on a fresh cache; returns wall seconds."""
    shutil.rmtree(root, ignore_errors=True)
    cache = ResultCache(root)
    start = time.perf_counter()
    report = run_batch(SPECS, cache=cache, processes=1)
    elapsed = time.perf_counter() - start
    summary = report.summary()
    assert summary["misses"] == SEEDS and summary["deduped"] == SEEDS * (DUPES - 1)
    return elapsed


def _warm(cache) -> float:
    start = time.perf_counter()
    report = run_batch(SPECS, cache=cache, processes=1)
    elapsed = time.perf_counter() - start
    assert report.summary()["hits"] == SEEDS and report.summary()["misses"] == 0
    return elapsed


class TestBatchCacheThroughput:
    def test_cold_batch(self, benchmark, tmp_path):
        benchmark.extra_info.update(
            path="cold", n=N, k=K, replicas=REPLICAS, requests=len(SPECS), unique=SEEDS
        )
        root = tmp_path / "cache"

        def run():
            return _cold(root)

        benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)

    def test_warm_batch(self, benchmark, tmp_path):
        benchmark.extra_info.update(
            path="warm", n=N, k=K, replicas=REPLICAS, requests=len(SPECS), unique=SEEDS
        )
        cache = ResultCache(tmp_path / "cache")
        run_batch(SPECS, cache=cache, processes=1)  # populate
        benchmark(lambda: _warm(cache))

    def test_warm_at_least_10x_faster_than_cold(
        self, tmp_path, count_calls, monkeypatch, timed_guards
    ):
        """The acceptance guard: a warm batch is pure cache lookups.

        It makes no run and no ``ScenarioSpec.resolve`` call, and every
        item comes from the cache.  In a timed session it must also be at
        least 10× faster than cold: cold pays SEEDS full ensemble
        simulations, warm pays SEEDS memory-LRU probes plus key hashing
        for every request, three orders of magnitude apart.
        """
        root = tmp_path / "cache"
        _cold(root)
        runs = count_calls(executor_module, "_run_task")
        resolves = count_calls(ScenarioSpec, "resolve")
        report = run_batch(SPECS, cache=ResultCache(root), processes=1)
        assert runs == [] and resolves == []
        assert report.sources.count("cache") == SEEDS
        assert report.sources.count("dedup") == SEEDS * (DUPES - 1)
        assert all(result is not None for result in report.results)
        monkeypatch.undo()
        if not timed_guards:
            return
        cold = min(_cold(root) for _ in range(3))
        cache = ResultCache(root)  # fresh memory layer; first warm pass promotes
        warm = min(_warm(cache) for _ in range(5))
        speedup = cold / warm
        assert speedup >= 10.0, (
            f"warm batch only {speedup:.1f}x faster than cold "
            f"(cold {cold * 1e3:.1f} ms, warm {warm * 1e3:.2f} ms)"
        )

"""Network-service benchmarks: warm-path HTTP throughput over the wire.

``repro.service`` sells the same bargain as ``repro.serve`` — repeated
traffic stops paying for simulation — but adds HTTP framing, JSON
encoding and the asyncio hop on top.  These benches measure what a client
actually observes: requests/sec and latency for warm ``POST /v1/simulate``
requests against a live server (tagged ``path=warm`` in
``BENCH_results.json``, with the server-side p95 attached via
``extra_info``), and a guard asserting a warm replay runs nothing and
is served from the cache — and, in a timed session, that it stays at
least 10× faster than the cold one, so the serving stack can never
quietly grow an overhead comparable to the simulations it memoises.
"""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.serve.cache import ResultCache
from repro.service import BackgroundServer, ScenarioService, ServiceClient

N, K, REPLICAS, SEEDS, DUPES = 6_000, 4, 4, 4, 3

#: SEEDS unique scenarios, each requested DUPES times — the shape of the
#: ``test_bench_serve`` batch workload, but arriving over a socket.  The
#: graph substrate (random-regular, ~150 ms per unique spec) keeps cold
#: simulation orders of magnitude above per-request HTTP overhead, which
#: is what the warm/cold ratio is measuring; the clique counts engines
#: are so fast (single-digit ms) that framing would dominate both sides.
SPECS = [
    dict(
        dynamics="3-majority",
        initial="paper-biased",
        n=N,
        k=K,
        replicas=REPLICAS,
        seed=seed,
        topology="random-regular",
        topology_params={"d": 8},
        max_rounds=300,
        stopping={"rule": "plurality-fraction", "fraction": 0.9},
    )
    for seed in range(SEEDS)
] * DUPES


@pytest.fixture(scope="module")
def server():
    service = ScenarioService(cache=ResultCache(None), workers=0)
    with BackgroundServer(service) as srv:
        yield srv


def _replay(client: ServiceClient, expect_source: str | None = None) -> float:
    """One pass over SPECS on a keep-alive connection; returns wall seconds."""
    start = time.perf_counter()
    for spec in SPECS:
        payload = client.simulate(spec)
        if expect_source is not None:
            assert payload["source"] == expect_source
    return time.perf_counter() - start


class TestServiceThroughput:
    def test_warm_simulate_requests(self, benchmark, server):
        with ServiceClient("127.0.0.1", server.port) as client:
            for spec in SPECS:
                client.simulate(spec)  # populate the cache

            def run():
                return _replay(client, expect_source="cache")

            benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
            stats = client.stats()
        warm = stats["requests"]["POST /v1/simulate"]
        benchmark.extra_info.update(
            path="warm",
            n=N,
            k=K,
            replicas=REPLICAS,
            requests=len(SPECS),
            unique=SEEDS,
            requests_per_second=round(
                len(SPECS) / float(benchmark.stats.stats.min), 1
            ),
            server_p95_ms=warm["p95_ms"],
        )

    def test_warm_at_least_10x_faster_than_cold(self, server, timed_guards):
        """Acceptance guard: a warm HTTP replay is served from the cache.

        It adds nothing to ``/v1/stats`` ``runs`` and every answer has
        ``source == "cache"``.  In a timed session it must also be at
        least 10× faster than cold: cold pays SEEDS full ensemble
        simulations, warm pays HTTP framing + JSON + a memory-LRU probe
        per request, orders of magnitude apart.
        """
        service = server.service
        with ServiceClient("127.0.0.1", server.port) as client:
            for spec in SPECS:
                client.simulate(spec)  # populate the cache
            runs = client.stats()["runs"]
            _replay(client, expect_source="cache")
            assert client.stats()["runs"] == runs
            if not timed_guards:
                return
            cold_samples = []
            for _ in range(3):
                service.cache.clear()
                cold_samples.append(_replay(client))
            cold = min(cold_samples)
            warm = min(_replay(client, expect_source="cache") for _ in range(5))
        speedup = cold / warm
        assert speedup >= 10.0, (
            f"warm HTTP replay only {speedup:.1f}x faster than cold "
            f"(cold {cold * 1e3:.1f} ms, warm {warm * 1e3:.2f} ms)"
        )


#: Every fault point armed with a trigger that can never fire within the
#: bench's traffic volume — the plan is live, the bookkeeping runs, but no
#: fault ever engages.  This isolates the pure cost of carrying the
#: instrumentation on the hot path.
UNTRIGGERED_PLAN = {
    "seed": 0,
    "rules": [{"point": point, "nth": 10**9} for point in faults.POINTS],
}


class TestServiceChaosThroughput:
    """The fault-injection layer must be (nearly) free when dormant.

    The resilience PR threads ``faults.fire(...)`` checks through the
    connection loop, the cache read path and the executor.  These benches
    pin down what that costs: a warm-replay benchmark with every point
    armed-but-untriggered (``path=warm-armed`` in ``BENCH_results.json``,
    directly comparable to ``path=warm`` above), plus a guard asserting
    the armed checks add <2% to a warm request.
    """

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    def test_warm_simulate_requests_armed(self, benchmark, server):
        faults.arm(UNTRIGGERED_PLAN)  # same process as the BackgroundServer
        with ServiceClient("127.0.0.1", server.port) as client:
            for spec in SPECS:
                client.simulate(spec)  # populate the cache

            def run():
                return _replay(client, expect_source="cache")

            benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
        benchmark.extra_info.update(
            path="warm-armed",
            n=N,
            k=K,
            replicas=REPLICAS,
            requests=len(SPECS),
            unique=SEEDS,
            fault_points=len(faults.POINTS),
            requests_per_second=round(
                len(SPECS) / float(benchmark.stats.stats.min), 1
            ),
        )

    def test_armed_untriggered_overhead_under_two_percent(
        self, server, count_calls, monkeypatch, timed_guards
    ):
        """Acceptance guard: armed-but-untriggered checks cost <2% warm.

        Counted: a warm request with every point armed makes at most 8
        ``faults.fire`` calls (it crosses 2, connection-drop and
        slow-response; 8 bounds even a cold request with cache and
        executor points in play), and none of them fires.  Timed, in a
        timed session: (cost of one armed ``fire()``) x 8 against the
        measured warm per-request latency — measured microscopically
        rather than as paired HTTP timings, since socket jitter on a
        loopback request is far larger than the cost being guarded.
        """
        faults.arm(UNTRIGGERED_PLAN)
        with ServiceClient("127.0.0.1", server.port) as client:
            for spec in SPECS:
                client.simulate(spec)
            fires = count_calls(faults, "fire")
            _replay(client, expect_source="cache")
            assert len(fires) <= 8 * len(SPECS)
            assert not any(state["fired"] for state in faults.describe()["points"].values())
        monkeypatch.undo()  # time the bare fire(), not the counter
        if not timed_guards:
            return
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            faults.fire("service.connection-drop")
        per_fire = (time.perf_counter() - start) / calls
        faults.disarm()

        with ServiceClient("127.0.0.1", server.port) as client:
            warm = min(_replay(client, expect_source="cache") for _ in range(3))
        per_request = warm / len(SPECS)

        overhead = 8 * per_fire / per_request
        assert overhead < 0.02, (
            f"armed fault checks cost {overhead * 100:.2f}% of a warm request "
            f"({per_fire * 1e9:.0f} ns/fire vs {per_request * 1e6:.0f} us/request)"
        )

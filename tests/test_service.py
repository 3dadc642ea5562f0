"""Tests for the network-facing service: HTTP framing, coalescing, deadlines,
the load harness, and end-to-end bit-identity against the library."""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

import repro
import repro.serve.executor as executor_module
from repro import ResultCache, ScenarioSpec, cache_key, faults, run_batch, simulate_ensemble
from repro.service import (
    BackgroundServer,
    ScenarioService,
    ServiceClient,
    ServiceError,
)
from repro.service.app import LatencyHistogram
from repro.service.http import MAX_BODY, HttpError, encode_response
from repro.service.load import (
    SMOKE_ENTRIES,
    corpus_json,
    drive,
    generate_corpus,
    run_load,
    spawn_service,
)


def spec_dict(**overrides) -> dict:
    fields = dict(
        dynamics="3-majority",
        initial="paper-biased",
        n=4_000,
        k=4,
        replicas=6,
        seed=0,
        stopping={"rule": "plurality-fraction", "fraction": 0.9},
        record={"metrics": ["bias"], "every": 1},
    )
    fields.update(overrides)
    return fields


@pytest.fixture(scope="module")
def server():
    service = ScenarioService(cache=ResultCache(None), workers=0)
    with BackgroundServer(service) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


@pytest.fixture()
def gate(monkeypatch):
    """Hold every in-process run until ``release`` is set (threads mode only)."""
    started, release = threading.Event(), threading.Event()
    real = executor_module._run_task

    def held(*args):
        started.set()
        if not release.wait(60):
            raise RuntimeError("gate never opened")
        return real(*args)

    monkeypatch.setattr(executor_module, "_run_task", held)
    yield started, release
    release.set()


#: Specs that parse and resolve but fail in the run: deterministic spec
#: failures like any other, so each must answer 400, never 500.
UNRUNNABLE = {
    "sparse-engine-with-targeted-adversary": dict(
        engine="sparse", adversary="targeted", adversary_params={"budget": 10}
    ),
    "h6-plurality-on-unknown-engine": dict(
        dynamics="h-plurality", dynamics_params={"h": 6, "engine": "fast"}
    ),
}


def run_failure(raw: dict) -> dict:
    """The envelope of the exception a direct library run of ``raw`` raises."""
    with pytest.raises(Exception) as err:
        simulate_ensemble(ScenarioSpec.from_dict(raw))
    return {"type": type(err.value).__name__, "message": str(err.value)}


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestLatencyHistogram:
    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 50, 200):
            hist.observe(ms / 1000.0)
        stats = hist.to_dict()
        assert stats["count"] == 5
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert stats["p99_ms"] >= 100  # the 200 ms sample dominates the tail
        assert (stats["min_ms"], stats["max_ms"]) == (1.0, 200.0)
        assert stats["p99_ms"] == 200.0  # its bucket edge (~205 ms), clamped to the max

    def test_empty_histogram(self):
        stats = LatencyHistogram().to_dict()
        assert stats["count"] == 0
        assert stats["p50_ms"] is None
        assert stats["min_ms"] is None and stats["max_ms"] is None

    def test_lone_request_reports_its_own_latency(self):
        # 1021 ms falls in the bucket whose upper edge is ~1158 ms; no
        # quantile may report more than was observed.
        hist = LatencyHistogram()
        hist.observe(1.021)
        stats = hist.to_dict()
        assert stats["min_ms"] == stats["max_ms"] == 1021.0
        assert stats["p50_ms"] == stats["p95_ms"] == stats["p99_ms"] == 1021.0


class TestHttpLayer:
    def test_encode_response_is_strict_json(self):
        raw = encode_response(200, {"x": 1.5})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200" in head
        assert b"content-length" in head.lower()
        assert json.loads(body) == {"x": 1.5}

    def test_encode_response_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_response(200, {"x": float("nan")})

    def test_http_error_carries_status(self):
        exc = HttpError(413, "too big")
        assert exc.status == 413
        assert "too big" in str(exc)


class TestEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 0
        assert payload["cache"] is True

    def test_simulate_cold_then_warm_bit_identical(self, client):
        spec = spec_dict(seed=11)
        cold = client.simulate(spec)
        warm = client.simulate(spec)
        assert cold["source"] == "run"
        assert warm["source"] == "cache"
        for field in ("key", "winners", "rounds", "converged", "plurality_color"):
            assert cold[field] == warm[field]
        assert cold["trace"]["digest"] == warm["trace"]["digest"]

    def test_simulate_agrees_with_direct_library_call(self, client):
        raw = spec_dict(seed=12)
        served = client.simulate(raw)
        direct = simulate_ensemble(ScenarioSpec.from_dict(raw))
        assert served["key"] == cache_key(ScenarioSpec.from_dict(raw))
        assert served["winners"] == [int(w) for w in direct.winners]
        assert served["rounds"] == [int(r) for r in direct.rounds]
        assert served["converged"] == [bool(c) for c in direct.converged]
        assert served["plurality_color"] == direct.plurality_color
        assert served["trace"]["digest"] == direct.trace.digest()
        assert served["spec"] == ScenarioSpec.from_dict(raw).to_dict()

    def test_result_lookup_roundtrip(self, client):
        spec = spec_dict(seed=13)
        posted = client.simulate(spec)
        fetched = client.result(posted["key"])
        assert fetched["source"] == "cache"
        assert fetched["trace"]["digest"] == posted["trace"]["digest"]
        assert fetched["winners"] == posted["winners"]

    def test_result_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.result("0" * 64)
        assert err.value.status == 404

    def test_result_malformed_key_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.result("not-a-key")
        assert err.value.status == 400

    def test_unknown_route_is_404(self, client):
        status, payload = client.request_json("GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["type"] == "HttpError"

    def test_wrong_method_is_405(self, client):
        status, payload = client.request_json("GET", "/v1/simulate")
        assert status == 405
        assert "POST" in payload["error"]["message"]

    def test_malformed_json_body_is_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/simulate",
                body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["type"] == "HttpError"

    def test_over_long_lines_are_400_and_the_service_lives(self, server, client):
        # Past the stream's 64 KiB limit a line fails inside asyncio, not in
        # the framing's own length check; it must still answer a typed 400.
        import socket

        long_header = b"GET /v1/health HTTP/1.1\r\nx-long: " + b"a" * 70_000 + b"\r\n\r\n"
        long_target = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        for raw, what in ((long_header, "header line"), (long_target, "request line")):
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                sock.sendall(raw)
                head, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400"), head
            assert json.loads(body)["error"] == {"type": "HttpError", "message": f"{what} too long"}
        assert client.health()["status"] == "ok"

    def test_body_past_the_cap_is_413_and_the_service_lives(self, server):
        # The cap is read off Content-Length before any body byte arrives;
        # the service answers a typed 413 and closes that connection.
        import socket

        head = (
            b"POST /v1/batch HTTP/1.1\r\ncontent-type: application/json\r\n"
            b"content-length: " + str(MAX_BODY + 1).encode() + b"\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(head)
            status_line, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
        assert status_line.startswith(b"HTTP/1.1 413"), status_line
        assert json.loads(body)["error"] == {
            "type": "HttpError",
            "message": f"request body of {MAX_BODY + 1} bytes exceeds the {MAX_BODY}-byte cap",
        }
        with ServiceClient("127.0.0.1", server.port) as fresh:
            status, payload = fresh.request_json("GET", "/v1/health")
        assert (status, payload["status"]) == (200, "ok")

    def test_invalid_spec_is_400_with_envelope(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(n=-1))
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ValueError"
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(seed=-1))
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ValueError"
        assert "seed" in err.value.body["error"]["message"]

    @pytest.mark.parametrize(
        "topology,params",
        [
            ("erdos-renyi", {"p": -0.5}),
            ("torus", {"rows": 0}),
            ("random-regular", {"d": 120}),
            ("random-regular", {"d": -2}),
        ],
    )
    def test_out_of_range_topology_params_are_400(self, client, topology, params):
        spec = spec_dict(n=120, replicas=2, topology=topology, topology_params=params)
        with pytest.raises(ServiceError) as err:
            client.simulate(spec)
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ValueError"

    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("h", dict(dynamics="h-plurality", dynamics_params={"h": 4.5})),
            ("h", dict(dynamics="h-plurality", dynamics_params={"h": True})),
            ("h", dict(dynamics="h-plurality", dynamics_params={"h": "3"})),
            ("budget", dict(adversary="targeted", adversary_params={"budget": 2.5})),
            ("budget", dict(adversary="targeted", adversary_params={"budget": True})),
            ("rounds", dict(stopping={"rule": "round-budget", "rounds": 2.5})),
            ("threshold", dict(stopping={"rule": "bias-threshold", "threshold": 2.5})),
            ("d", dict(n=120, topology="random-regular", topology_params={"d": 4.5})),
        ],
        ids=[
            "h-float", "h-bool", "h-string", "budget-float", "budget-bool",
            "rounds-float", "threshold-float", "d-float",
        ],
    )
    def test_non_integer_parameters_are_400(self, client, name, overrides):
        # Truncating 4.5 to 4 (or True to 1) would run another scenario
        # under this spec's cache key; every integer parameter rejects it.
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(seed=62, **overrides))
        assert err.value.status == 400
        assert err.value.body["error"]["type"] == "ValueError"
        assert f"{name} must be an integer" in err.value.body["error"]["message"]

    def test_unseeded_spec_is_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(seed=None))
        assert err.value.status == 400
        assert "seed" in err.value.body["error"]["message"]

    def test_unknown_spec_key_is_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate(spec_dict(bogus_field=1))
        assert err.value.status == 400

    def test_stats_shape(self, client):
        client.simulate(spec_dict(seed=14))
        stats = client.stats()
        assert stats["runs"] >= 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert "POST /v1/simulate" in stats["requests"]
        per = stats["requests"]["POST /v1/simulate"]
        assert per["count"] >= 1
        assert per["p95_ms"] is not None
        assert 0 < per["min_ms"] <= per["p50_ms"] <= per["max_ms"]

    def test_batch_mixed_valid_invalid_and_dedup(self, client):
        good = spec_dict(seed=15)
        bad = spec_dict(seed=15, n="nope")
        report = client.batch([good, bad, good])
        assert report["requests"] == 3
        assert report["errors"] == 1
        assert report["unique"] == 1
        sources = [item["source"] for item in report["items"]]
        assert sources[0] in ("run", "cache")
        assert sources[1] == "error"
        assert sources[2] == "dedup"
        assert report["items"][1]["error"]["type"] == "ValueError"
        assert report["items"][0]["trace"]["digest"] == report["items"][2]["trace"]["digest"]

    def test_batch_scenarios_wrapper_accepted(self, client):
        report = client.batch({"scenarios": [spec_dict(seed=16)]})
        assert report["requests"] == 1
        assert report["items"][0]["error"] is None


class TestCoalescing:
    def test_concurrent_duplicates_run_once(self, gate):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        spec = spec_dict(seed=17)
        fan_out = 4
        payloads: list[dict] = []
        errors: list[BaseException] = []

        def one_request():
            try:
                with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                    payloads.append(c.simulate(spec))
            except BaseException as exc:  # noqa: BLE001 — surfaced via the assert
                errors.append(exc)

        _started, release = gate
        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(fan_out)]
            for t in threads:
                t.start()
            wait_until(lambda: service.executor.coalesced == fan_out - 1)
            release.set()
            for t in threads:
                t.join(timeout=120)
            with ServiceClient("127.0.0.1", srv.port) as c:
                stats = c.stats()
        assert not errors, errors
        assert stats["runs"] == 1
        assert stats["coalesced"] == fan_out - 1
        sources = sorted(p["source"] for p in payloads)
        assert sources.count("coalesced") == fan_out - 1
        digests = {p["trace"]["digest"] for p in payloads}
        assert len(digests) == 1  # every follower saw the owner's bits

    def test_coalesced_failure_propagates_to_followers(self, gate, monkeypatch):
        service = ScenarioService(cache=ResultCache(None), workers=0)

        def exploding(spec, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(executor_module, "simulate_ensemble", exploding)
        spec = spec_dict(seed=18)
        statuses: list[int] = []
        envelopes: list[dict] = []

        def one_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.simulate(spec)
                    statuses.append(200)
                except ServiceError as exc:
                    statuses.append(exc.status)
                    envelopes.append(exc.body["error"])

        _started, release = gate
        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(3)]
            for t in threads:
                t.start()
            wait_until(lambda: service.executor.coalesced == 2)
            release.set()
            for t in threads:
                t.join(timeout=60)
        # A run that raises is a deterministic failure of its spec: 400,
        # with the owner's envelope for every follower.
        assert statuses == [400, 400, 400]
        assert envelopes == [{"type": "RuntimeError", "message": "engine exploded"}] * 3


class TestProcessPoolWorkers:
    def test_workers_pool_matches_inline(self, tmp_path):
        spec = spec_dict(seed=19, n=2_000, replicas=4)
        inline = ScenarioService(cache=ResultCache(None), workers=0)
        pooled = ScenarioService(cache=ResultCache(None), workers=1)
        with BackgroundServer(inline) as a, BackgroundServer(pooled) as b:
            with ServiceClient("127.0.0.1", a.port) as ca, ServiceClient(
                "127.0.0.1", b.port
            ) as cb:
                left = ca.simulate(spec)
                right = cb.simulate(spec)
        assert left["key"] == right["key"]
        assert left["winners"] == right["winners"]
        assert left["trace"]["digest"] == right["trace"]["digest"]


class TestPooledExecution:
    """``workers >= 1``: one persistent spawn pool behind the service."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    def test_pooled_crash_answers_200_after_one_retry(self, monkeypatch):
        # The spawned worker arms the plan from the environment and crashes
        # its first task; the retry runs on the same (live) worker.
        monkeypatch.setenv(
            faults.ENV_VAR,
            '{"rules":[{"point":"executor.worker-crash","nth":1,"times":1}]}',
        )
        service = ScenarioService(cache=ResultCache(None), workers=1)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                payload = c.simulate(spec_dict(seed=21, n=2_000, replicas=4))
                stats = c.stats()
        assert payload["source"] == "run"
        assert stats["worker_retries"] == 1

    def test_cache_hit_answers_while_a_miss_is_held_in_the_worker(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR,
            '{"rules":[{"point":"executor.worker-stall","nth":1,"times":1,'
            '"params":{"seconds":4.0}}]}',
        )
        cache = ResultCache(None)
        hit_spec = spec_dict(seed=22, n=2_000, replicas=4)
        hit = ScenarioSpec.from_dict(hit_spec)
        cache.put(cache_key(hit), simulate_ensemble(hit))
        service = ScenarioService(cache=cache, workers=1)
        finished: dict[str, float] = {}

        def miss():
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                assert c.simulate(spec_dict(seed=23, n=2_000, replicas=4))["source"] == "run"
            finished["miss"] = time.perf_counter()

        with BackgroundServer(service) as srv:
            thread = threading.Thread(target=miss)
            thread.start()
            wait_until(lambda: service.executor._inflight)  # the miss is in flight
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                assert c.simulate(hit_spec)["source"] == "cache"
            finished["hit"] = time.perf_counter()
            assert "miss" not in finished  # still held in the stalled worker
            thread.join(timeout=120)
        assert finished["hit"] < finished["miss"]


class TestCorpus:
    def test_generation_is_deterministic(self):
        a = corpus_json(seed=0, unique=12, duplicates=3)
        b = corpus_json(seed=0, unique=12, duplicates=3)
        assert a == b
        assert corpus_json(seed=1, unique=12, duplicates=3) != a

    def test_entries_are_valid_specs(self):
        entries = generate_corpus(seed=0, unique=8, duplicates=2)
        assert len(entries) == 10
        for entry in entries:
            spec = ScenarioSpec.from_dict(entry)
            assert spec.seed is not None
            spec.validate()

    def test_committed_corpus_matches_generator(self):
        committed = (
            __import__("pathlib").Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "load"
            / "corpus.json"
        )
        assert committed.exists(), "benchmarks/load/corpus.json is committed"
        assert committed.read_text() == corpus_json()


class TestLoadDriver:
    def test_run_load_smoke_replays_identically(self, server):
        specs = generate_corpus(seed=0, unique=4, duplicates=2)[:SMOKE_ENTRIES]
        report = run_load("127.0.0.1", server.port, specs, concurrency=2)
        assert report["health"]["status"] == "ok"
        assert report["replay_identical"] is True
        degraded = report["degraded"]
        assert degraded["ok"] is True
        assert degraded["statuses"] == {"200": 2 * len(specs) + report["unique_keys"]}
        # The clients' counters, then the server's per-run deltas.
        names = (
            "retried",
            "unavailable",
            "reconnects",
            "shed",
            "deadline_hits",
            "worker_retries",
            "dropped_connections",
            "cache_quarantined",
            "cache_read_errors",
        )
        assert {name: degraded[name] for name in names} == dict.fromkeys(names, 0)
        phases = report["phases"]
        assert phases["cold"]["requests"] == len(specs)
        assert phases["warm"]["requests"] == len(specs)
        assert phases["warm"]["sources"].get("cache", 0) + phases["warm"][
            "sources"
        ].get("coalesced", 0) == len(specs)
        assert phases["lookup"]["requests"] == report["unique_keys"]
        for phase in phases.values():
            latency = phase["latency_ms"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_more_users_than_cores_answer_every_request_once(self, server):
        # Eight user threads share one queue and one payload list; a short
        # switch interval makes a lost or doubled item likely if either
        # were unsafe.
        specs = generate_corpus(seed=0, unique=8, duplicates=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_load("127.0.0.1", server.port, specs, concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        assert report["replay_identical"] is True
        assert report["degraded"]["statuses"] == {"200": 2 * len(specs) + report["unique_keys"]}


class TestSpawnedService:
    """``repro load``'s launcher: ``python -m repro.service`` plus verbatim flags."""

    def test_drive_replays_and_leaves_no_cache_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = drive(generate_corpus(seed=0, unique=2, duplicates=0), concurrency=1)
        assert report["replay_identical"] is True
        assert report["spawned_service"] is True
        assert report["fault_plan"] is None
        assert list(tmp_path.iterdir()) == []

    def test_drive_reports_the_inherited_fault_plan(self, tmp_path, monkeypatch):
        # The spawned service inherits the caller's environment, so it arms
        # from $REPRO_FAULT_PLAN when no --fault-plan flag is given.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = json.dumps({"seed": 7, "rules": [{"point": "cache.read-error", "nth": 1000}]})
        monkeypatch.setenv(faults.ENV_VAR, plan)
        report = drive(generate_corpus(seed=0, unique=2, duplicates=0), concurrency=1)
        assert report["replay_identical"] is True
        assert report["degraded"]["faults"]["seed"] == 7
        assert report["fault_plan"] == faults.FaultPlan.parse(plan).to_dict()
        assert list(tmp_path.iterdir()) == []

    def test_fault_plan_flag_arms_the_pool_worker(self, tmp_path):
        plan = json.dumps({"rules": [{"point": "executor.worker-crash", "nth": 1, "times": 1}]})
        process, host, port = spawn_service(
            str(tmp_path), ["--workers", "1", "--fault-plan", plan]
        )
        with process:
            try:
                with ServiceClient(host, port, timeout=120.0) as c:
                    status, payload = c.request_json(
                        "POST", "/v1/simulate", spec_dict(seed=21, n=2_000, replicas=4)
                    )
                    stats = c.stats()
            finally:
                process.terminate()
        assert (status, payload["source"]) == (200, "run")
        assert stats["worker_retries"] == 1

    def test_service_flags_are_checked_before_anything_starts(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("no process may start")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        specs = generate_corpus(seed=0, unique=1, duplicates=0)
        with pytest.raises(SystemExit):
            drive(specs, service_args=["--wokers", "1"])
        with pytest.raises(SystemExit):
            drive(specs, server=("127.0.0.1", 1), service_args=["--workers", "1"])
        assert "not a running --server" in capsys.readouterr().err


class TestValidationMemo:
    """The run is the only place the service resolves a spec."""

    def test_validate_runs_once_per_unique_spec(self, monkeypatch):
        # A cold graph request resolves (and so builds its topology) once,
        # inside the run; the warm repeat is a parse, a key and a cache hit.
        calls: list[int] = []
        real_resolve = ScenarioSpec.resolve

        def counting_resolve(self):
            calls.append(self.seed)
            return real_resolve(self)

        monkeypatch.setattr(ScenarioSpec, "resolve", counting_resolve)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        spec = spec_dict(
            seed=30, n=120, replicas=2, topology="random-regular", topology_params={"d": 4}
        )
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                cold = c.simulate(spec)
                assert calls == [30]
                warm = c.simulate(spec)
        assert (cold["source"], warm["source"]) == ("run", "cache")
        assert calls == [30]

    def test_invalid_specs_are_not_memoised(self):
        # An unknown name parses, then fails the run's resolve: the same
        # 400 envelope every time, and nothing reaches the cache.
        cache = ResultCache(None)
        service = ScenarioService(cache=cache, workers=0)
        bad = spec_dict(seed=31, dynamics="no-such-dynamics")
        envelopes = []
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                for _ in range(2):
                    with pytest.raises(ServiceError) as err:
                        c.simulate(bad)
                    assert err.value.status == 400
                    envelopes.append(err.value.body["error"])
        assert envelopes[0] == envelopes[1] == run_failure(bad)
        assert envelopes[0]["type"] == "KeyError"
        assert cache.stats()["stores"] == 0
        assert service.executor.runs == 0


class TestUnrunnableSpecs:
    """Specs that parse but fail to resolve or to run answer 400, never 500."""

    @pytest.fixture(scope="class", params=[0, 1], ids=["threads", "pool"])
    def port(self, request):
        service = ScenarioService(cache=ResultCache(None), workers=request.param)
        with BackgroundServer(service) as srv:
            yield srv.port

    @pytest.mark.parametrize("name", sorted(UNRUNNABLE))
    def test_simulate_answers_400_with_the_run_envelope(self, port, name):
        spec = spec_dict(**{"seed": 60, **UNRUNNABLE[name]})
        with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
            with pytest.raises(ServiceError) as err:
                c.simulate(spec)
        assert err.value.status == 400
        assert err.value.body["error"] == run_failure(spec)
        assert err.value.body["error"]["type"] == "ValueError"

    def test_batch_keys_each_failure_and_serves_its_siblings(self, port):
        good = spec_dict(seed=61)
        bad = [spec_dict(**{"seed": 61, **UNRUNNABLE[name]}) for name in sorted(UNRUNNABLE)]
        with ServiceClient("127.0.0.1", port, timeout=120.0) as c:
            report = c.batch([good, *bad, good])
        items = report["items"]
        assert report["errors"] == len(bad)
        assert items[0]["error"] is None and items[0]["source"] == "run"
        assert items[-1]["error"] is None and items[-1]["source"] == "dedup"
        for raw, item in zip(bad, items[1:-1]):
            assert item["source"] == "error"
            assert item["key"] == cache_key(ScenarioSpec.from_dict(raw))
            assert item["error"] == run_failure(raw)


class TestOneBatchPath:
    """``run_batch`` (so ``repro batch``) and ``/v1/batch`` answer a batch alike."""

    def test_library_and_wire_items_agree_in_order(self):
        good = spec_dict(seed=62)
        unrunnable = spec_dict(**{"seed": 62, **UNRUNNABLE["sparse-engine-with-targeted-adversary"]})
        batch = [
            good,
            spec_dict(seed=62, n="nope"),  # does not parse
            spec_dict(seed=None),  # no seed
            unrunnable,
            good,  # a duplicate of a served spec
            unrunnable,  # a duplicate of a failed one
        ]
        report = run_batch(batch, processes=1)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as c:
                wire = c.batch(batch)
        library = [
            (key, source, error, None if result is None else result.trace.digest())
            for key, source, result, error in zip(
                report.keys, report.sources, report.results, report.errors
            )
        ]
        over_the_wire = [
            (item["key"], item["source"], item["error"], item.get("trace", {}).get("digest"))
            for item in wire["items"]
        ]
        assert over_the_wire == library
        assert [source for _, source, _, _ in library] == [
            "run", "error", "error", "error", "dedup", "error"
        ]
        assert library[3][2] == run_failure(unrunnable)
        assert wire["unique"] == report.summary()["unique"] == 2
        # One counting rule: the library's summary is the wire document's
        # counters, wall clock apart.
        summary = report.summary()
        counters = {name: value for name, value in wire.items() if name != "items"}
        assert summary.pop("wall_seconds") >= 0 and counters.pop("wall_seconds") >= 0
        assert summary == counters
        assert (summary["misses"], summary["deduped"], summary["errors"]) == (1, 1, 4)


class TestServiceResilience:
    """Deadlines, backpressure, drain, worker recovery — under injected faults."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_injected_owner_crash_rejects_all_followers_same_envelope(self, gate, monkeypatch):
        # Every attempt crashes → bounded retries exhaust → the owner AND
        # every coalesced follower get the same 500 envelope, and the
        # in-flight table is left clean.
        from repro import faults

        monkeypatch.setattr(executor_module, "MAX_ATTEMPTS", 2)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        faults.arm({"rules": [{"point": "executor.worker-crash", "probability": 1.0}]})
        spec = spec_dict(seed=41)
        outcomes: list[tuple[int, dict]] = []

        def one_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.simulate(spec)
                    outcomes.append((200, {}))
                except ServiceError as exc:
                    outcomes.append((exc.status, exc.body.get("error", {})))

        _started, release = gate
        with BackgroundServer(service) as srv:
            threads = [threading.Thread(target=one_request) for _ in range(3)]
            for t in threads:
                t.start()
            wait_until(lambda: service.executor.coalesced == 2)
            release.set()
            for t in threads:
                t.join(timeout=60)
        statuses = sorted(status for status, _ in outcomes)
        assert statuses == [500, 500, 500]
        envelopes = {json.dumps(envelope, sort_keys=True) for _, envelope in outcomes}
        assert len(envelopes) == 1  # followers see the owner's exact envelope
        assert outcomes[0][1]["type"] == "WorkerPoolError"
        assert service.executor._inflight == {}

    def test_exhausted_batch_run_answers_500(self, monkeypatch):
        # A run the executor could not finish fails the whole batch, as it
        # fails /v1/simulate and run_batch; it is no spec's item error.
        monkeypatch.setattr(executor_module, "MAX_ATTEMPTS", 2)
        faults.arm({"rules": [{"point": "executor.worker-crash", "probability": 1.0}]})
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                with pytest.raises(ServiceError) as err:
                    c.batch([spec_dict(seed=43), spec_dict(seed=43, n="nope")])
        assert err.value.status == 500
        assert err.value.body["error"]["type"] == "WorkerPoolError"
        assert "after 2 attempts" in err.value.body["error"]["message"]
        assert service.executor._inflight == {}

    def test_worker_crash_recovers_transparently(self):
        # A sub-certain crash probability: retries absorb every crash and
        # the client never sees a failure.
        from repro import faults

        faults.arm(
            {"seed": 11, "rules": [{"point": "executor.worker-crash", "probability": 0.5}]}
        )
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                payloads = [c.simulate(spec_dict(seed=s)) for s in range(6)]
        assert all(p["source"] == "run" for p in payloads)
        assert service.executor.worker_retries > 0  # the plan did fire

    def test_config_deadline_yields_504(self, gate):
        service = ScenarioService(
            cache=ResultCache(None), workers=0, deadline_seconds=0.15
        )
        _started, release = gate
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                with pytest.raises(ServiceError) as err:
                    c.simulate(spec_dict(seed=42))
            assert err.value.status == 504
            assert err.value.body["error"]["type"] == "DeadlineExceeded"
            assert service.deadline_hits == 1
            # The deadline bounded the wait, not the run: it still finishes.
            release.set()
            wait_until(lambda: service.executor.runs == 1)
        assert service.executor._inflight == {}

    def test_batch_waits_on_the_loop_and_its_deadline_spares_the_runs(self, gate):
        # While a batch's runs are held, the event loop still answers; past
        # the deadline the batch answers 504, and its runs finish and are
        # cached all the same.
        cache = ResultCache(None)
        service = ScenarioService(cache=cache, workers=0, deadline_seconds=1.0)
        batch = [spec_dict(seed=44), spec_dict(seed=45), spec_dict(seed=44)]
        outcome: list[int] = []

        def post_batch():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                try:
                    c.batch(batch)
                    outcome.append(200)
                except ServiceError as exc:
                    outcome.append(exc.status)

        started, release = gate
        with BackgroundServer(service) as srv:
            poster = threading.Thread(target=post_batch)
            poster.start()
            assert started.wait(30)
            with ServiceClient("127.0.0.1", srv.port, timeout=5.0) as probe:
                assert probe.health()["status"] == "ok"  # answered with the runs held
            poster.join(timeout=60)
            assert not poster.is_alive()
            assert outcome == [504] and service.deadline_hits == 1
            release.set()
            wait_until(lambda: service.executor.runs == 2)
        keys = [cache_key(ScenarioSpec.from_dict(raw)) for raw in batch[:2]]
        assert all(cache.get(key) is not None for key in keys)
        assert service.executor._inflight == {}

    def test_header_deadline_overrides_config(self, gate):
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec_dict(seed=43)),
                    headers={
                        "Content-Type": "application/json",
                        "x-deadline-ms": "100",
                    },
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            gate[1].set()
        assert response.status == 504
        assert body["error"]["type"] == "DeadlineExceeded"

    def test_invalid_deadline_header_is_400(self):
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec_dict(seed=44)),
                    headers={"Content-Type": "application/json", "x-deadline-ms": "nope"},
                )
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
        assert response.status == 400

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_deadline_header_is_400(self, raw):
        # float() accepts every one of these (1e400 overflows to inf); none
        # is a deadline, so none may mean "no deadline" or "already past".
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec_dict(seed=44)),
                    headers={"Content-Type": "application/json", "x-deadline-ms": raw},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 400
        assert body["error"]["type"] == "HttpError"
        assert "finite" in body["error"]["message"]
        assert service.deadline_hits == 0
        assert service.executor.runs == 0

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_non_finite_config_deadline_is_rejected(self, seconds):
        with pytest.raises(ValueError, match="finite"):
            ScenarioService(cache=ResultCache(None), deadline_seconds=seconds)

    def test_owner_deadline_leaves_followers_served(self, gate):
        # The owner carries a short x-deadline-ms; the followers have no
        # deadline of their own.  The owner's deadline bounds only its own
        # wait: it answers 504, while the run it started finishes and the
        # coalesced followers get 200 from that one run.
        import http.client

        service = ScenarioService(cache=ResultCache(None), workers=0)
        started, release = gate
        spec = spec_dict(seed=45)
        owner_result: list[tuple[int, str]] = []
        follower_results: list[tuple[int, str]] = []

        def owner():
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60.0)
            try:
                conn.request(
                    "POST",
                    "/v1/simulate",
                    body=json.dumps(spec),
                    headers={
                        "Content-Type": "application/json",
                        "x-deadline-ms": "300",
                    },
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                owner_result.append((response.status, body["error"]["type"]))
            finally:
                conn.close()

        def follower():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                payload = c.simulate(spec)
                follower_results.append((200, payload["source"]))

        with BackgroundServer(service) as srv:
            owner_thread = threading.Thread(target=owner)
            owner_thread.start()
            started.wait(timeout=10)  # the owner's run holds the in-flight entry
            followers = [threading.Thread(target=follower) for _ in range(2)]
            for t in followers:
                t.start()
            wait_until(lambda: service.executor.coalesced == 2)
            owner_thread.join(timeout=60)
            release.set()
            for t in followers:
                t.join(timeout=60)
            with ServiceClient("127.0.0.1", srv.port) as c:
                stats = c.stats()
        assert owner_result == [(504, "DeadlineExceeded")]
        assert follower_results == [(200, "coalesced")] * 2
        assert stats["runs"] == 1
        assert service.executor._inflight == {}

    def test_backpressure_sheds_with_429_and_retry_after(self, gate):
        service = ScenarioService(cache=ResultCache(None), workers=0, max_in_flight=1)
        occupied, release = gate  # the slot is genuinely taken once the run starts
        shed_status: list[int] = []
        retry_after: list[float | None] = []

        def occupant():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.simulate(spec_dict(seed=46))

        with BackgroundServer(service) as srv:
            thread = threading.Thread(target=occupant)
            thread.start()
            occupied.wait(timeout=10)
            deadline = time.perf_counter() + 10
            with ServiceClient("127.0.0.1", srv.port, timeout=30.0) as c:
                while time.perf_counter() < deadline:
                    try:
                        c.simulate(spec_dict(seed=47))
                    except ServiceError as exc:
                        shed_status.append(exc.status)
                        retry_after.append(c.last_retry_after)
                        break
                    time.sleep(0.01)
            release.set()
            thread.join(timeout=60)
        assert shed_status == [429]
        assert retry_after == [1.0]
        assert service.shed >= 1

    def test_probes_do_not_count_toward_max_in_flight(self):
        # A health/stats probe in flight must not make the work cap shed
        # real work: only simulate and batch requests count.
        cache = ResultCache(None)
        entered, release = threading.Event(), threading.Event()
        real_stats = cache.stats

        def slow_stats():
            entered.set()
            release.wait(30)
            return real_stats()

        cache.stats = slow_stats
        service = ScenarioService(cache=cache, workers=0, max_in_flight=1)

        def stats_probe():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.stats()

        with BackgroundServer(service) as srv:
            probe = threading.Thread(target=stats_probe)
            probe.start()
            try:
                assert entered.wait(timeout=10)  # /v1/stats is in flight
                with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                    payload = c.simulate(spec_dict(seed=55))
            finally:
                release.set()
                probe.join(timeout=30)
        assert payload["source"] == "run"
        assert service.shed == 0

    def test_drain_rejects_new_work_finishes_in_flight(self, gate):
        service = ScenarioService(cache=ResultCache(None), workers=0)
        started, release = gate
        results: list[dict] = []

        def in_flight_request():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                results.append(c.simulate(spec_dict(seed=48)))

        with BackgroundServer(service) as srv:
            port = srv.port
            thread = threading.Thread(target=in_flight_request)
            thread.start()
            started.wait(timeout=10)
            # Pre-open a keep-alive connection BEFORE the listener closes:
            # it survives into the drain and must get 503 for new work.
            survivor = ServiceClient("127.0.0.1", port, timeout=30.0)
            survivor.health()
            future = asyncio.run_coroutine_threadsafe(service.drain(10.0), srv._loop)
            time.sleep(0.05)  # drain has closed the listener by now
            try:
                survivor.simulate(spec_dict(seed=49))
                draining_status = 200
            except ServiceError as exc:
                draining_status = exc.status
                draining_type = exc.body["error"]["type"]
            finally:
                survivor.close()
            release.set()
            drained = future.result(timeout=30)
            thread.join(timeout=60)
        assert draining_status == 503
        assert draining_type == "Draining"
        assert drained is True
        assert results and results[0]["source"] == "run"  # in-flight work finished

    def test_sigterm_drain_closes_idle_keep_alive_quietly(self):
        # An idle keep-alive connection is cancelled at loop teardown; its
        # handler must end cleanly, not print an asyncio traceback.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--workers", "0", "--port", "0", "--no-cache"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/v1/health")
            response = conn.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "repro-service drained (clean)" in out
        assert "Traceback" not in err, err

    def test_slow_response_fault_delays_but_succeeds(self):
        from repro import faults

        faults.arm(
            {
                "rules": [
                    {
                        "point": "service.slow-response",
                        "nth": 1,
                        "times": 1,
                        "params": {"seconds": 0.3},
                    }
                ]
            }
        )
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                start = time.perf_counter()
                payload = c.simulate(spec_dict(seed=50))
                elapsed = time.perf_counter() - start
        assert payload["source"] == "run"
        assert elapsed >= 0.3

    def test_stats_surface_resilience_counters(self, client):
        stats = client.stats()
        for field in (
            "shed",
            "deadline_hits",
            "worker_retries",
            "dropped_connections",
            "draining",
            "limits",
            "faults",
        ):
            assert field in stats
        assert stats["faults"] is None  # no plan armed on the shared server


class TestClientResilience:
    """Reconnect-and-resend, typed unavailability, retry policy."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_sync_client_resends_over_dropped_connection(self):
        from repro import faults
        from repro.service.client import ServiceUnavailable

        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.health()  # establish the keep-alive connection
                faults.arm(
                    {
                        "rules": [
                            {"point": "service.connection-drop", "nth": 1, "times": 1}
                        ]
                    }
                )
                payload = c.simulate(spec_dict(seed=51))  # dropped once, resent
        assert payload["source"] in ("run", "cache")
        assert service.dropped_connections == 1
        assert c.reconnects == 1

    def test_run_load_resends_a_dropped_response(self):
        from repro import faults

        specs = generate_corpus(seed=0, unique=4, duplicates=2)
        service = ScenarioService(cache=ResultCache(None), workers=0)
        with BackgroundServer(service) as srv:
            # The run's health and stats probes are answered first, so the
            # third response is the first cold one.
            faults.arm(
                {"rules": [{"point": "service.connection-drop", "nth": 3, "times": 1}]}
            )
            report = run_load("127.0.0.1", srv.port, specs, concurrency=2)
        assert report["replay_identical"] is True
        degraded = report["degraded"]
        assert set(degraded["statuses"]) == {"200"}
        assert degraded["reconnects"] == degraded["dropped_connections"] == 1
        assert service.dropped_connections == 1

    def test_unreachable_raises_typed_service_unavailable(self):
        import socket

        from repro.service.client import ServiceUnavailable

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with ServiceClient("127.0.0.1", dead_port, timeout=2.0) as c:
            with pytest.raises(ServiceUnavailable):
                c.health()

    def test_retry_policy_recovers_from_shed(self, gate):
        from repro.service.client import RetryPolicy

        service = ScenarioService(cache=ResultCache(None), workers=0, max_in_flight=1)
        occupied, release = gate

        def occupant():
            with ServiceClient("127.0.0.1", srv.port, timeout=60.0) as c:
                c.simulate(spec_dict(seed=53))

        with BackgroundServer(service) as srv:
            thread = threading.Thread(target=occupant)
            thread.start()
            occupied.wait(timeout=10)

            def releaser():
                time.sleep(0.4)
                release.set()

            release_thread = threading.Thread(target=releaser)
            release_thread.start()
            retry_client = ServiceClient(
                "127.0.0.1",
                srv.port,
                timeout=60.0,
                retry=RetryPolicy(attempts=30, backoff_base=0.05, backoff_cap=0.2),
            )
            try:
                payload = retry_client.simulate(spec_dict(seed=54))
            finally:
                retry_client.close()
            release_thread.join(timeout=10)
            thread.join(timeout=60)
        assert payload["source"] == "run"
        assert retry_client.retried >= 1
        # Every retry followed a shed, and each 429 is counted.
        assert retry_client.statuses == {429: retry_client.retried, 200: 1}
        assert service.shed >= 1

    def test_retry_policy_validates(self):
        from repro.service.client import RetryPolicy

        with pytest.raises(ValueError, match="attempts must be >= 1"):
            RetryPolicy(attempts=0)
        policy = RetryPolicy(attempts=3, backoff_cap=0.5)
        assert policy.delay(0, retry_after=7.0) == 0.5  # capped
        assert 0 < policy.delay(5) <= 0.5 * 1.5

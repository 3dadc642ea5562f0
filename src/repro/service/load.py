"""Sustained-load harness: seeded corpus + async replay driver.

Two halves, both deterministic:

* :func:`generate_corpus` builds a scenario corpus from the registries —
  every entry is a strict-validated :class:`ScenarioSpec` dict with a
  concrete seed, sized to run in milliseconds on the counts engines —
  and :func:`corpus_json` renders it byte-identically at a fixed
  ``seed`` (asserted in the tests; ``benchmarks/load/corpus.json`` is
  the committed instance).  A deterministic tail of duplicate entries
  exercises dedup/coalescing the way real repeated traffic would.

* :func:`run_load` replays a corpus against a live service at a target
  concurrency (one :class:`AsyncConnection` per virtual user, shared
  work queue), in two passes — **cold** (every unique spec simulates)
  then **warm** (every request is a cache hit) — followed by a
  ``/v1/result`` lookup sweep.  The report carries client-observed
  p50/p95/p99 per phase, requests/sec, per-request provenance counts,
  the server's ``/v1/stats`` delta (hit rate, coalescing), and a
  ``replay_identical`` verdict: cold, warm and lookup must agree on
  winners/rounds and trace digest for every key.

:func:`drive` is the CLI entry (``repro load``): it optionally spawns a
fresh service subprocess (``python -m repro.service``) with an empty
cache so the cold pass is genuinely cold, replays, applies the p95
budget, and returns the JSON report.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .. import faults
from ..scenario import ScenarioSpec
from .client import AsyncConnection, RetryPolicy, ServiceClient, ServiceUnavailable

__all__ = [
    "corpus_json",
    "drive",
    "generate_corpus",
    "run_load",
    "spawn_service",
    "write_corpus",
]

#: Default committed corpus location, relative to the repository root.
DEFAULT_CORPUS = "benchmarks/load/corpus.json"

#: Smoke tier: first N corpus entries, low concurrency, generous budget.
SMOKE_ENTRIES = 8
SMOKE_CONCURRENCY = 2

_DYNAMICS = (
    ("3-majority", {}),
    ("h-plurality", {"h": 2}),
    ("h-plurality", {"h": 3}),
)
_WORKLOADS = (
    ("paper-biased", {}),
    ("geometric-tail", {"ratio": 0.9}),
)


def generate_corpus(seed: int = 0, unique: int = 24, duplicates: int | None = None) -> list[dict]:
    """Deterministic scenario corpus drawn from the registries.

    ``unique`` distinct specs (sequential spec seeds, sampled dynamics /
    workload / size) followed by ``duplicates`` exact repeats of sampled
    earlier entries (default ``unique // 4``).  Every entry round-trips
    through strict validation, so the corpus is guaranteed servable.
    """
    if unique < 1:
        raise ValueError(f"unique must be >= 1, got {unique}")
    duplicates = unique // 4 if duplicates is None else duplicates
    rng = np.random.default_rng(seed)
    entries: list[dict] = []
    for index in range(unique):
        dynamics, dynamics_params = _DYNAMICS[int(rng.integers(len(_DYNAMICS)))]
        initial, initial_params = _WORKLOADS[int(rng.integers(len(_WORKLOADS)))]
        spec = ScenarioSpec(
            dynamics=dynamics,
            dynamics_params=dict(dynamics_params),
            initial=initial,
            initial_params=dict(initial_params),
            n=int(rng.integers(4, 25)) * 1000,
            k=int(rng.choice([3, 4, 6, 8])),
            replicas=int(rng.choice([4, 8])),
            max_rounds=800,
            stopping={"rule": "plurality-fraction", "fraction": 0.9},
            # Half the corpus records a trace so cold/warm digest identity
            # is exercised over the wire, not just winners/rounds.
            record={"metrics": ["bias", "plurality-fraction"], "every": 1}
            if index % 2 == 0
            else None,
            seed=index,
        ).validate()
        entries.append(spec.to_dict())
    for _ in range(duplicates):
        entries.append(dict(entries[int(rng.integers(unique))]))
    return entries


def corpus_json(seed: int = 0, unique: int = 24, duplicates: int | None = None) -> str:
    """The corpus rendered canonically (sorted keys, 2-space indent, LF)."""
    entries = generate_corpus(seed=seed, unique=unique, duplicates=duplicates)
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def write_corpus(path, seed: int = 0, unique: int = 24, duplicates: int | None = None) -> int:
    """Write :func:`corpus_json` to ``path``; returns the number of entries."""
    text = corpus_json(seed=seed, unique=unique, duplicates=duplicates)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")
    return len(json.loads(text))


# -- replay driver -----------------------------------------------------------


def _identity_view(payload: dict) -> dict:
    """The fields two servings of the same key must agree on, bit for bit."""
    return {
        "key": payload["key"],
        "winners": payload["winners"],
        "rounds": payload["rounds"],
        "converged": payload["converged"],
        "plurality_color": payload["plurality_color"],
        "stop_reasons": payload["stop_reasons"],
        "trace_digest": None if payload["trace"] is None else payload["trace"]["digest"],
    }


#: Client-side retry attempts per request in the replay driver — generous,
#: because under an armed chaos plan a request can be shed (429), deadline
#: (504) or lose its connection several times and still must complete for
#: the bit-identity verdict to be checkable.
REPLAY_RETRY_ATTEMPTS = 6


async def _replay_phase(
    host: str,
    port: int,
    requests: list[tuple[str, str, dict | None]],
    concurrency: int,
) -> tuple[list[dict], list[float], float, dict]:
    """Drive ``requests`` (method, path, payload) through N user connections.

    Every virtual user retries degraded responses (429/5xx, per
    :class:`RetryPolicy`) and transport failures with capped backoff —
    safe because requests are idempotent by content address.  Returns
    per-request response payloads (request order), per-request
    client-observed latencies in seconds (successful attempts), the phase
    wall time, and a degradation counter dict: every status observed
    (including retried attempts), retries taken, transport failures, and
    reconnects.
    """
    queue: asyncio.Queue[tuple[int, tuple[str, str, dict | None]]] = asyncio.Queue()
    for item in enumerate(requests):
        queue.put_nowait(item)
    payloads: list[dict | None] = [None] * len(requests)
    latencies: list[float] = []
    counters = {"statuses": {}, "retried": 0, "unavailable": 0, "reconnects": 0}
    policy = RetryPolicy(attempts=REPLAY_RETRY_ATTEMPTS, rng=random.Random(0))

    async def _one(conn: AsyncConnection, method, path, payload) -> dict:
        for attempt in range(policy.attempts):
            if attempt:
                counters["retried"] += 1
                retry_after = conn.last_headers.get("retry-after")
                try:
                    retry_after = None if retry_after is None else float(retry_after)
                except ValueError:
                    retry_after = None
                await asyncio.sleep(policy.delay(attempt - 1, retry_after))
            start = time.perf_counter()
            try:
                status, body = await conn.request_json(method, path, payload)
            except ServiceUnavailable:
                counters["unavailable"] += 1
                if attempt == policy.attempts - 1:
                    raise
                continue
            counters["statuses"][status] = counters["statuses"].get(status, 0) + 1
            if status < 400:
                latencies.append(time.perf_counter() - start)
                return body
            if status not in policy.statuses or attempt == policy.attempts - 1:
                raise RuntimeError(f"{method} {path} failed with {status}: {body}")
        raise AssertionError("unreachable")  # pragma: no cover

    async def user() -> None:
        conn = await AsyncConnection.open(host, port)
        try:
            while True:
                try:
                    index, (method, path, payload) = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                payloads[index] = await _one(conn, method, path, payload)
        finally:
            counters["reconnects"] += conn.reconnects
            await conn.close()

    start = time.perf_counter()
    await asyncio.gather(*(user() for _ in range(max(1, concurrency))))
    wall = time.perf_counter() - start
    return payloads, latencies, wall, counters


def _phase_summary(
    payloads: list[dict], latencies: list[float], wall: float, counters: dict
) -> dict:
    sources: dict[str, int] = {}
    for payload in payloads:
        source = payload.get("source", "?")
        sources[source] = sources.get(source, 0) + 1
    samples = np.asarray(latencies) * 1e3
    p50, p95, p99 = (float(v) for v in np.percentile(samples, [50, 95, 99]))
    return {
        "requests": len(payloads),
        "wall_seconds": round(wall, 4),
        "rps": round(len(payloads) / wall, 2) if wall > 0 else None,
        "latency_ms": {
            "mean": round(float(samples.mean()), 3),
            "p50": round(p50, 3),
            "p95": round(p95, 3),
            "p99": round(p99, 3),
            "max": round(float(samples.max()), 3),
        },
        "sources": sources,
        "statuses": {str(k): v for k, v in sorted(counters["statuses"].items())},
        "retried": counters["retried"],
        "reconnects": counters["reconnects"],
    }


async def run_load(host: str, port: int, specs: list[dict], *, concurrency: int = 4) -> dict:
    """Cold pass → warm pass → lookup sweep; returns the full report dict."""
    probe = await AsyncConnection.open(host, port)
    try:
        status, health = await probe.request_json("GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"/v1/health answered {status}: {health}")
        _, stats_before = await probe.request_json("GET", "/v1/stats")
    finally:
        await probe.close()

    simulate_requests = [("POST", "/v1/simulate", spec) for spec in specs]
    cold_payloads, cold_latencies, cold_wall, cold_counters = await _replay_phase(
        host, port, simulate_requests, concurrency
    )
    warm_payloads, warm_latencies, warm_wall, warm_counters = await _replay_phase(
        host, port, simulate_requests, concurrency
    )

    cold_views = [_identity_view(p) for p in cold_payloads]
    warm_views = [_identity_view(p) for p in warm_payloads]
    identical = cold_views == warm_views

    unique_keys = sorted({view["key"] for view in cold_views})
    lookup_requests = [("GET", f"/v1/result/{key}", None) for key in unique_keys]
    lookup_payloads, lookup_latencies, lookup_wall, lookup_counters = await _replay_phase(
        host, port, lookup_requests, concurrency
    )
    by_key = {view["key"]: view for view in cold_views}
    identical = identical and all(
        _identity_view(payload) == by_key[payload["key"]] for payload in lookup_payloads
    )

    probe = await AsyncConnection.open(host, port)
    try:
        _, stats_after = await probe.request_json("GET", "/v1/stats")
    finally:
        await probe.close()

    return {
        "health": health,
        "concurrency": concurrency,
        "corpus_requests": len(specs),
        "unique_keys": len(unique_keys),
        "phases": {
            "cold": _phase_summary(cold_payloads, cold_latencies, cold_wall, cold_counters),
            "warm": _phase_summary(warm_payloads, warm_latencies, warm_wall, warm_counters),
            "lookup": _phase_summary(
                lookup_payloads, lookup_latencies, lookup_wall, lookup_counters
            ),
        },
        "replay_identical": identical,
        "degraded": _degraded_verdict(
            [cold_counters, warm_counters, lookup_counters], stats_before, stats_after
        ),
        "server_stats": stats_after,
        "server_stats_before": stats_before,
    }


def _degraded_verdict(phase_counters: list[dict], stats_before: dict, stats_after: dict) -> dict:
    """Aggregate degradation report + the ``ok`` verdict.

    ``ok`` means every request ultimately succeeded with only *survivable*
    degradation along the way: shed (429) and deadline (504) responses are
    allowed — they are the resilience layer doing its job — but any other
    5xx is a real failure.  Counts are per-run deltas so a long-lived
    server can be load-tested repeatedly.
    """
    statuses: dict[int, int] = {}
    retried = unavailable = reconnects = 0
    for counters in phase_counters:
        for status, count in counters["statuses"].items():
            statuses[status] = statuses.get(status, 0) + count
        retried += counters["retried"]
        unavailable += counters["unavailable"]
        reconnects += counters["reconnects"]

    def _delta(field: str) -> int | None:
        before, after = stats_before.get(field), stats_after.get(field)
        if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
            return None
        return int(after - before)

    def _cache_delta(field: str) -> int | None:
        before = (stats_before.get("cache") or {}).get(field)
        after = (stats_after.get("cache") or {}).get(field)
        if not isinstance(before, (int, float)) or not isinstance(after, (int, float)):
            return None
        return int(after - before)

    disallowed = {
        str(status): count
        for status, count in sorted(statuses.items())
        if status >= 500 and status != 504
    }
    return {
        "ok": not disallowed,
        "statuses": {str(status): count for status, count in sorted(statuses.items())},
        "disallowed_statuses": disallowed,
        "retried": retried,
        "unavailable": unavailable,
        "reconnects": reconnects,
        "shed": _delta("shed"),
        "deadline_hits": _delta("deadline_hits"),
        "worker_retries": _delta("worker_retries"),
        "dropped_connections": _delta("dropped_connections"),
        "cache_quarantined": _cache_delta("quarantined"),
        "cache_read_errors": _cache_delta("read_errors"),
        "faults": stats_after.get("faults"),
    }


# -- service spawning / CLI orchestration ------------------------------------


def _free_port(host: str) -> int:
    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def spawn_service(
    *,
    cache_dir: str,
    workers: int = 0,
    host: str = "127.0.0.1",
    timeout: float = 60.0,
    fault_plan: str | None = None,
    deadline_ms: float | None = None,
    max_in_flight: int = 0,
    memory_entries: int | None = None,
) -> tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro.service`` and wait for ``/v1/health``.

    ``fault_plan`` (inline JSON or ``@path``) arms :mod:`repro.faults` in
    the child — and, via ``$REPRO_FAULT_PLAN``, in every worker the child
    spawns.  ``memory_entries`` shrinks the cache's in-memory LRU; the
    chaos smoke sets 1 so warm traffic actually reads disk, which is the
    only way the corruption-quarantine path can fire under load.
    """
    port = _free_port(host)
    package_root = str(Path(__file__).resolve().parents[2])  # .../src
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [
        sys.executable,
        "-m",
        "repro.service",
        "--host",
        host,
        "--port",
        str(port),
        "--workers",
        str(workers),
        "--cache-dir",
        cache_dir,
    ]
    if fault_plan:
        env[faults.ENV_VAR] = fault_plan
    if deadline_ms is not None:
        argv += ["--deadline-ms", str(deadline_ms)]
    if max_in_flight:
        argv += ["--max-in-flight", str(max_in_flight)]
    if memory_entries is not None:
        argv += ["--memory-entries", str(memory_entries)]
    process = subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    client = ServiceClient(host, port, timeout=5.0)
    deadline = time.perf_counter() + timeout
    try:
        while True:
            if process.poll() is not None:
                output = process.stdout.read() if process.stdout else ""
                raise RuntimeError(
                    f"service exited with {process.returncode} before serving:\n{output}"
                )
            try:
                client.health()
                return process, host, port
            except Exception:
                if time.perf_counter() > deadline:
                    process.terminate()
                    raise RuntimeError(f"service did not answer /v1/health in {timeout}s")
                time.sleep(0.1)
    finally:
        client.close()


def drive(
    specs: list[dict],
    *,
    concurrency: int = 4,
    server: tuple[str, int] | None = None,
    service_workers: int = 0,
    p95_budget_ms: float | None = None,
    fault_plan: str | None = None,
    deadline_ms: float | None = None,
    max_in_flight: int = 0,
    memory_entries: int | None = None,
) -> dict:
    """Replay ``specs``; spawn a fresh cold service unless ``server`` is given.

    The budget (when set) applies to the **warm** ``/v1/simulate`` p95 —
    the steady-state read path the service exists for.  The verdict lands
    in the report under ``budget``; callers decide the exit code.
    ``fault_plan``/``deadline_ms``/``max_in_flight``/``memory_entries``
    configure the spawned service (ignored with an external ``server``) —
    the chaos smoke's knobs.
    """
    process = None
    tmp_cache = None
    if server is None:
        tmp_cache = tempfile.mkdtemp(prefix="repro-load-cache-")
        process, host, port = spawn_service(
            cache_dir=tmp_cache,
            workers=service_workers,
            fault_plan=fault_plan,
            deadline_ms=deadline_ms,
            max_in_flight=max_in_flight,
            memory_entries=memory_entries,
        )
    else:
        host, port = server
    try:
        report = asyncio.run(run_load(host, port, specs, concurrency=concurrency))
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
    report["spawned_service"] = process is not None
    plan = faults.FaultPlan.parse(fault_plan) if fault_plan else None
    report["fault_plan"] = None if plan is None else plan.to_dict()
    if p95_budget_ms is not None:
        warm_p95 = report["phases"]["warm"]["latency_ms"]["p95"]
        report["budget"] = {
            "p95_budget_ms": p95_budget_ms,
            "warm_p95_ms": warm_p95,
            "within_budget": warm_p95 <= p95_budget_ms,
        }
    return report

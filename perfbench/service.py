"""service-cold: closed-loop HTTP load on ``python -m repro.service``.

One client process (this one) drives a spawned ``--workers 1`` server
with specs it has never seen, over two keep-alive connections, each
sending its next request only after the previous reply.  Every latency is
a client-side sample; ``/v1/stats`` contributes only its exact counts,
means and counters.

The traced run drives the same load, stops the server, then replays the
start of the same request sequence in-process through the program's
public calls with spans around each stage (see :func:`_replay`).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from . import gen
from .common import (
    OUT, ROOT, child_env, cpu_seconds, descendants, median, sliced_quantile, sliced_rate, vm_hwm_mb, wait_gone,
)

WORKERS = 1
#: Cold requests mostly wait on the worker, so two connections overlap
#: validation and topology builds with the worker's run.
CONNECTIONS = 2
#: Default in-memory LRU capacity of the server's result cache.
SERVER_MEMORY_ENTRIES = 256
#: Requests replayed in-process by the traced run.
REPLAY = 16
CROSS_CHECKS = 4
RETRY_ATTEMPTS = 3


# -- HTTP client (benchmark-owned, so program changes cannot move the ruler) ---


class Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def _roundtrip(self, method: str, path: str, body: bytes) -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, await self.reader.readexactly(length) if length else b""

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """One request with bounded retry on 429/5xx and dropped connections."""
        status, data = 0, b""
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                await asyncio.sleep(0.05 * attempt)
            try:
                if self.writer is None:
                    await self.open()
                status, data = await self._roundtrip(method, path, body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                await self.close()
                status, data = 0, b""
                continue
            if status < 400 or status not in (429, 500, 502, 503, 504):
                break
        return status, data


def _identity(payload: dict) -> tuple:
    """Fields every serving of one key must agree on."""
    trace = payload.get("trace")
    return (
        payload["key"],
        tuple(payload["winners"]),
        tuple(payload["rounds"]),
        tuple(payload["converged"]),
        payload["plurality_color"],
        tuple(sorted(payload["stop_reasons"].items())),
        None if trace is None else trace["digest"],
    )


def _local_identity(key: str, result) -> tuple:
    return (
        key,
        tuple(int(w) for w in result.winners),
        tuple(int(r) for r in result.rounds),
        tuple(bool(c) for c in result.converged),
        int(result.plurality_color),
        tuple(sorted(result.stop_reasons().items())),
        None if result.trace is None else result.trace.digest(),
    )


def _body(spec: dict) -> bytes:
    return json.dumps(spec, separators=(",", ":")).encode("utf-8")


async def _closed_loop(host, port, requests, seconds, check) -> tuple[list, float]:
    """Drive ``requests`` ((method, path, body) list) until the clock runs out.

    Returns per-request ``(index, latency_s, ok, end_offset_s)`` records and
    the wall time from the first send to the last reply.
    """
    counter = itertools.count()
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    last = [start]

    async def user():
        conn = await Connection(host, port).open()
        try:
            while time.perf_counter() < deadline:
                index = next(counter)
                if index >= len(requests):
                    return
                method, path, body = requests[index]
                t0 = time.perf_counter()
                status, data = await conn.request(method, path, body)
                t1 = time.perf_counter()
                last[0] = max(last[0], t1)
                ok = status == 200 and check(index, json.loads(data))
                records.append((index, t1 - t0, ok, t1 - start))
        finally:
            await conn.close()

    await asyncio.gather(*(user() for _ in range(CONNECTIONS)))
    return records, last[0] - start


async def _get_json(host, port, method, path, payload=None) -> tuple[int, dict]:
    conn = await Connection(host, port).open()
    try:
        status, data = await conn.request(method, path, b"" if payload is None else _body(payload))
    finally:
        await conn.close()
    return status, json.loads(data) if data else {}


# -- server lifecycle -----------------------------------------------------------


class Server:
    """A spawned ``python -m repro.service`` with a fresh cache directory."""

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(self.cache_dir.parent / (self.cache_dir.name + ".log"), "w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--host", self.host, "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=self.log,
            cwd=ROOT,
            env=child_env(),
            text=True,
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def stop(self) -> None:
        if self.process is None:
            return
        tree = descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.log.close()
        wait_gone(tree, timeout=10)
        self.process = None


def _setup(tmp: Path, index: int) -> tuple[Server, float]:
    """Start a server and time it until the first (probe) request is answered."""
    server = Server(tmp / f"cache-{index}")
    start = time.perf_counter()
    server.start()
    status, payload = asyncio.run(
        _get_json(server.host, server.port, "POST", "/v1/simulate", gen.probe_spec(index))
    )
    elapsed = time.perf_counter() - start
    if status != 200:
        server.stop()
        raise RuntimeError(f"probe request answered {status}: {payload}")
    return server, elapsed


def _stats(server: Server) -> dict:
    status, stats = asyncio.run(_get_json(server.host, server.port, "GET", "/v1/stats"))
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    return stats


_WORK = ("POST /v1/simulate", "GET /v1/result")


def _server_delta(before: dict, after: dict) -> dict[str, float]:
    """Exact counters and means from two ``/v1/stats`` snapshots (no quantiles)."""
    count = total = errors = 0.0
    for label in set(before["requests"]) | set(after["requests"]):
        b = before["requests"].get(label, {})
        a = after["requests"].get(label, {})
        errors += a.get("errors", 0) - b.get("errors", 0)
        if label in _WORK:
            count += a.get("count", 0) - b.get("count", 0)
            total += a.get("count", 0) * (a.get("mean_ms") or 0) - b.get("count", 0) * (b.get("mean_ms") or 0)
    out = {
        "service.server_mean_ms": total / count if count else 0.0,
        "service.errors": float(errors),
    }
    for field in ("runs", "coalesced", "shed", "deadline_hits", "worker_retries"):
        out[f"service.{field}"] = float(after[field] - before[field])
    if after["cache"]["disk_entries"]:
        out["cache.bytes_per_entry"] = after["cache"]["disk_bytes"] / after["cache"]["disk_entries"]
    return out


# -- workloads -------------------------------------------------------------------


def _cross_check(samples: list[tuple[dict, tuple]]) -> list[str]:
    """Recompute sampled results in-process and compare with what was served."""
    from repro.scenario import ScenarioSpec, simulate_ensemble
    from repro.serve.cache import cache_key

    problems = []
    for spec_dict, served in samples:
        spec = ScenarioSpec.from_dict(spec_dict)
        local = _local_identity(cache_key(spec), simulate_ensemble(spec))
        if local != served:
            problems.append(f"in-process simulate_ensemble differs for key {served[0][:12]}")
    return problems


def _cold(seed: int, seconds: float) -> dict:
    stream = gen.cold_sequence(seed, count=max(2000, int(seconds * 100)))
    requests = [("POST", "/v1/simulate", _body(spec)) for _family, spec in stream]
    served: dict[int, tuple] = {}

    def check(index, payload):
        served[index] = _identity(payload)
        return payload.get("source") == "run"

    return {"requests": requests, "check": check, "served": served, "stream": stream}


def _recheck_cold(server: Server, plan: dict, done: list[int], seed: int) -> tuple[list[str], list]:
    """Cold ≡ re-asked ≡ ``/v1/result`` for a seeded sample of cold keys."""
    rng = random.Random(f"cold-recheck:{seed}")
    picked = rng.sample(done, min(len(done), 2 * CROSS_CHECKS))
    problems = []
    for index in picked:
        cold = plan["served"][index]
        _family, spec = plan["stream"][index]
        status, again = asyncio.run(_get_json(server.host, server.port, "POST", "/v1/simulate", spec))
        if status != 200 or again.get("source") != "cache" or _identity(again) != cold:
            problems.append(f"re-asking cold key {cold[0][:12]} differs")
        status, looked = asyncio.run(_get_json(server.host, server.port, "GET", f"/v1/result/{cold[0]}"))
        if status != 200 or _identity(looked) != cold:
            problems.append(f"/v1/result of cold key {cold[0][:12]} differs")
    samples = [(plan["stream"][index][1], plan["served"][index]) for index in picked[:CROSS_CHECKS]]
    return problems, samples


def run(seed: int, seconds: float, trace: bool, *, setups: int, tiny: bool, span_path: str | None) -> dict:
    tmp = OUT / "tmp" / f"service-cold-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    server = None
    try:
        setup_times = []
        for index in range(setups):
            if server is not None:
                server.stop()
            server, elapsed = _setup(tmp, index)
            setup_times.append(elapsed)
        plan = _cold(seed, seconds)
        before = _stats(server)
        cpu_before = cpu_seconds(server.process.pid)
        records, wall = asyncio.run(
            _closed_loop(server.host, server.port, plan["requests"], seconds, plan["check"])
        )
        cpu_used = cpu_seconds(server.process.pid) - cpu_before
        after = _stats(server)
        problems = [f"request {index} failed or differs" for index, _lat, ok, _end in records if not ok][:20]
        done = sorted(index for index, _lat, ok, _end in records if ok)
        recheck, samples = _recheck_cold(server, plan, done, seed)
        problems += recheck
        peak_rss = vm_hwm_mb(server.process.pid)
        server.stop()
        problems += _cross_check(samples)

        latencies_ms = [(end, latency * 1e3) for _index, latency, _ok, end in records]
        ok = sum(1 for _index, _lat, good, _end in records if good)
        rounds = [(end, sum(plan["served"][index][2])) for index, _lat, good, end in records if good]
        client_mean_ms = sum(latency for _end, latency in latencies_ms) / len(latencies_ms)
        groups: dict[str, list[float]] = {}
        for index, latency, _ok, _end in records:
            groups.setdefault(plan["stream"][index][0], []).append(latency * 1e3)
        info = {
            "ops": len(records),
            "setup_samples_s": setup_times,
            "wall_s": wall,
            "p50_ms_by_kind": {group: [len(v), median(v)] for group, v in sorted(groups.items())},
        }
        if trace:
            values = _server_delta(before, after)
            values["service.client_mean_ms"] = client_mean_ms
            values["service.transport_ms"] = client_mean_ms - values["service.server_mean_ms"]
            values["service.server_cpu_ms_per_req"] = cpu_used * 1e3 / len(records)
            replayed, replay_problems = _replay(plan, tmp, tiny, span_path)
            problems += replay_problems
            stage_ms = replayed.pop("stage_ms")
            hop_ms = replayed.pop("hop_ms")
            info["self_ms_per_op"] = replayed.pop("self_ms")
            values.update(replayed)
            values["service.stage_sum_ms"] = stage_ms
            values["service.unattributed_share"] = 1.0 - stage_ms / client_mean_ms
            values["service.worker_hop_ms"] = client_mean_ms - hop_ms
            info["replica_rounds"] = int(values["core.replica_rounds"])
        else:
            values = {
                "setup_s": median(setup_times),
                "ops_per_s": sliced_rate([(end, 1) for *_rest, end in records], wall),
                "latency_p50_ms": sliced_quantile(latencies_ms, wall, 0.50),
                "latency_p95_ms": sliced_quantile(latencies_ms, wall, 0.95),
                "replica_rounds_per_s": sliced_rate(rounds, wall),
                "ok_share": ok / len(records),
                "peak_rss_mb": peak_rss,
            }
            info["p99_ms"] = sliced_quantile(latencies_ms, wall, 0.99)
        return {
            "attempted": len(records),
            "failed": len(records) - ok,
            "problems": problems,
            "values": values,
            "info": info,
        }
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)


# -- traced in-process replay -----------------------------------------------------


def _replay(plan, tmp: Path, tiny: bool, span_path) -> tuple[dict, list[str]]:
    """Replay the request sequence through the program's calls, with and without spans.

    Every pass validates every spec and writes into a fresh cache
    directory, as the server did for these never-seen specs.
    """
    from repro.scenario import ScenarioSpec, simulate_ensemble
    from repro.serve.cache import ResultCache
    from repro.service.app import result_payload
    from repro.service.http import encode_response

    from .metrics import engine_layers
    from .trace import Tracer, instrument

    count = 8 if tiny else REPLAY
    items = [(index, _body(spec), family) for index, (family, spec) in enumerate(plan["stream"][:count])]
    problems: list[str] = []
    passes = itertools.count()

    def fresh_cache() -> ResultCache:
        return ResultCache(tmp / f"replay-{next(passes)}", memory_entries=SERVER_MEMORY_ENTRIES)

    def one_pass(tracer: Tracer | None, cache: ResultCache) -> tuple[float, dict]:
        span = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
        meta = {}
        start = time.perf_counter()
        for op, (index, body, family) in enumerate(items):
            if tracer is not None:
                tracer.op = op
            with span("service.request"):
                with span("service.json_decode"):
                    entry = json.loads(body)
                with span("scenario.parse"):
                    spec = ScenarioSpec.from_dict(entry)
                with span("service.memo_token"):
                    spec.to_json(indent=None)
                with span("scenario.validate"):
                    spec.validate()
                with span("cache.key"):
                    key = cache.key_for(spec)
                with span("cache.get"):
                    if cache.get(key) is not None:
                        problems.append(f"replayed request {op} hit a fresh cache")
                with span("scenario.simulate_ensemble"):
                    result = simulate_ensemble(spec)
                with span("cache.put"):
                    cache.put(key, result)
                meta[op] = (family, int(result.rounds.sum()))
                with span("service.result_payload"):
                    payload = result_payload(key, "run", result)
                    payload["spec"] = spec.to_dict()
                with span("service.encode_response"):
                    encode_response(200, payload)
            expected = plan["served"].get(index)
            if expected is not None and _identity(payload) != expected:
                problems.append(f"replayed request {op} differs from the served result")
        return time.perf_counter() - start, meta

    one_pass(None, fresh_cache())  # warm-up
    traced = plain = 0.0
    for _ in range(2):
        cache = fresh_cache()
        tracer = Tracer()
        with instrument(tracer):
            seconds, meta = one_pass(tracer, cache)
        traced += seconds
        plain += one_pass(None, fresh_cache())[0]

    values = engine_layers(tracer, meta)
    values["trace.overhead_share"] = traced / plain - 1.0
    values["trace.spans"] = float(len(tracer.spans))
    totals = tracer.totals()
    requests = len(items)
    for name, metric_name, scale in (
        ("cache.key", "cache.key_us", 1e6),
        ("cache.put", "cache.put_ms", 1e3),
        ("service.result_payload", "service.payload_us", 1e6),
        ("service.encode_response", "service.encode_us", 1e6),
    ):
        calls, seconds = totals.get(name, (0, 0.0))
        values[metric_name] = seconds / calls * scale if calls else 0.0
    values["graphs.topology_build_ms"] = totals.get("graphs.topology_build", (0, 0.0))[1] / requests * 1e3
    roots = {index for index, row in enumerate(tracer.spans) if row[0] == "service.request"}
    stage_s = sum(end - start for _n, start, end, parent, _op in tracer.spans if parent in roots) / 1e9
    values["stage_ms"] = stage_s / requests * 1e3
    hop_s = sum(
        totals.get(name, (0, 0.0))[1] for name in ("scenario.validate", "scenario.simulate_ensemble", "cache.put")
    )
    values["hop_ms"] = hop_s / requests * 1e3
    values["self_ms"] = {name: seconds * 1e3 / requests for name, seconds in tracer.self_times().items()}
    if span_path:
        tracer.dump(Path(span_path))
    return values, sorted(set(problems))[:20]

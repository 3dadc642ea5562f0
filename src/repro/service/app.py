"""The scenario service: asyncio HTTP front over the serve substrate.

:class:`ScenarioService` owns one listening socket and one
:class:`~repro.serve.executor.Executor` (which owns the cache, the
in-flight coalescing table, the worker pool and the retry loop).
Request handling is a straight pipeline::

    parse JSON  →  strict ScenarioSpec parse (error envelope on failure)
    →  Executor.submit  →  await the run's future  →  JSON payload

The service resolves no registry name itself: the run does, once, inside
the executor, and a spec that fails to resolve or to run comes back as
its :class:`~repro.serve.envelope.EnvelopeError` and answers 400.
``/v1/batch`` answers through :class:`~repro.serve.executor.Batch`, the
path ``repro batch`` takes too: there such a spec is a keyed per-item
error.  A warm request is a parse, a key and a cache hit.

The handlers build no body: :mod:`repro.serve` renders each one
(``result_payload``, ``simulate_payload``, ``batch_document``), and
``repro simulate --json`` and ``repro batch --json`` print the same
documents.

Two concurrent requests for the same key run the simulation **once**
(the second reports ``source: "coalesced"``, counted in ``/v1/stats``).
``workers=0`` executes misses on in-process threads (the
dependency-light mode used by tests and the smoke harness); ``workers
>= 1`` runs them in a persistent spawn-context process pool.

Resilience (all deterministic under :mod:`repro.faults`, exercised by
the chaos smoke in CI):

* **deadlines** — ``deadline_seconds`` (or a per-request ``x-deadline-ms``
  header) bounds how long a work request *waits*; past it the request
  answers a 504 ``DeadlineExceeded`` envelope.  The run itself belongs to
  the executor: it finishes, is cached, and coalesced requests get it;
* **worker recovery** — the executor retries a crashed or stalled run
  (see :mod:`repro.serve.executor`); results are pure functions of the
  spec, so retries are bit-identical;
* **backpressure** — ``max_in_flight`` caps concurrent work requests;
  excess ones are shed with 429 + ``Retry-After`` (counted in
  ``/v1/stats`` under ``shed``) rather than queued without bound.  Health,
  stats and result lookups never count toward the cap;
* **graceful drain** — :meth:`ScenarioService.drain` (SIGTERM in
  ``python -m repro.service``) stops accepting, answers new work 503,
  finishes in-flight requests within a grace budget, then closes;
  closing ends keep-alive connections idle between requests, so their
  handlers return instead of being cancelled at loop teardown.

See the package docstring (:mod:`repro.service`) for the wire schema.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import re
import time
from bisect import bisect_left

from .. import __version__, faults
from ..core.process import ENGINE_SCHEMA_VERSION
from ..serve.cache import ResultCache
from ..serve.envelope import (
    EnvelopeError,
    error_envelope,
    prepare_spec,
    result_payload,
    simulate_payload,
)
from ..serve.executor import (
    FROM_CACHE,
    MAX_ATTEMPTS,
    Batch,
    Executor,
    batch_document,
    batch_entries,
)
from .http import HttpError, Request, encode_response, read_request

__all__ = ["LatencyHistogram", "ScenarioService", "result_payload"]

#: How long closing waits for the handlers of the idle connections it
#: closed.  Their end-of-stream arrives within a few loop iterations
#: unless a peer stopped reading the previous response.
_IDLE_CLOSE_SECONDS = 1.0

#: Work endpoints: the routes that execute simulations, and therefore the
#: ones deadlines bound and backpressure sheds.  Health, stats and cached
#: result lookups always answer.
_WORK_LABELS = frozenset({"POST /v1/simulate", "POST /v1/batch"})

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class LatencyHistogram:
    """Fixed log-spaced latency histogram with quantile readout.

    Buckets grow by √2 from 0.1 ms to ~100 s, so any latency is within
    ~20% of its bucket bound — plenty for p50/p95/p99 reporting without
    storing per-request samples.  The exact ``min`` and ``max`` are kept
    too, and every quantile is clamped into ``[min, max]``, so no quantile
    reports a latency beyond what was observed.  Only touched from the
    event loop, so it needs no locking.
    """

    def __init__(self):
        bounds = [1e-4]
        while bounds[-1] < 100.0:
            bounds.append(bounds[-1] * 2 ** 0.5)
        self._bounds = bounds  # upper edge of each bucket, seconds
        self._counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, seconds: float) -> None:
        self._counts[bisect_left(self._bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def quantile(self, q: float) -> float | None:
        """Upper edge of the q-quantile's bucket clamped into [min, max] (seconds); None when empty."""
        if self.count == 0:
            return None
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= target and bucket:
                break
        edge = self._bounds[min(index, len(self._bounds) - 1)]
        return min(max(edge, self.min), self.max)

    def to_dict(self) -> dict[str, object]:
        def _ms(seconds: float | None) -> float | None:
            return None if seconds is None else round(seconds * 1e3, 3)

        return {
            "count": self.count,
            "mean_ms": _ms(self.total / self.count) if self.count else None,
            "min_ms": _ms(self.min) if self.count else None,
            "max_ms": _ms(self.max) if self.count else None,
            "p50_ms": _ms(self.quantile(0.50)),
            "p95_ms": _ms(self.quantile(0.95)),
            "p99_ms": _ms(self.quantile(0.99)),
        }


class ScenarioService:
    """One service instance: routes, stats and an :class:`Executor`.

    Parameters
    ----------
    cache:
        :class:`ResultCache` to probe and fill; ``None`` serves without
        caching (every request runs, ``/v1/result`` always 404s).
    workers:
        Process-pool width for cache misses.  ``0`` (default) executes
        misses on in-process threads — no pool start-up cost, the right
        mode for tests and smoke runs; ``>= 1`` runs them in a persistent
        spawn-context pool of stateless workers.
    deadline_seconds:
        Default per-request deadline for the work endpoints (``None`` —
        the default — means unbounded).  A client ``x-deadline-ms``
        header overrides it per request.  Past the deadline the request
        answers 504; the run goes on for the cache and coalesced requests.
    max_in_flight:
        Concurrent-work cap; ``0`` (default) is unbounded.  Work requests
        arriving at the cap are shed with 429 + ``Retry-After`` instead
        of queueing without bound.
    worker_timeout:
        Seconds to wait for one pooled attempt before the pool counts as
        stalled and is replaced (``None``: wait forever — rely on the
        request deadline instead).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        workers: int = 0,
        deadline_seconds: float | None = None,
        max_in_flight: int = 0,
        worker_timeout: float | None = None,
    ):
        if deadline_seconds is not None and not 0 < deadline_seconds < math.inf:
            raise ValueError(f"deadline_seconds must be finite and > 0, got {deadline_seconds}")
        if max_in_flight < 0:
            raise ValueError(f"max_in_flight must be >= 0, got {max_in_flight}")
        self.executor = Executor(cache, workers=workers, worker_timeout=worker_timeout)
        self.cache = cache
        self.deadline_seconds = None if deadline_seconds is None else float(deadline_seconds)
        self.max_in_flight = int(max_in_flight)
        self._server: asyncio.AbstractServer | None = None
        #: Connections waiting for their next request, and their handlers.
        self._idle: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._draining = False
        self._histograms: dict[str, LatencyHistogram] = {}
        self._errors: dict[str, int] = {}
        self.in_flight = 0
        self.shed = 0
        self.deadline_hits = 0
        self.dropped_connections = 0
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self._started_at = time.monotonic()
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, end idle keep-alive connections, stop the executor."""
        if self._server is not None:
            self._server.close()
            idle = list(self._idle.items())
            for writer, _handler in idle:
                writer.close()  # the handler reads end-of-stream and returns
            if idle:
                await asyncio.wait([handler for _, handler in idle], timeout=_IDLE_CLOSE_SECONDS)
            # From Python 3.12 this also waits for every connection to drop.
            await self._server.wait_closed()
            self._server = None
        self.executor.close()

    async def drain(self, grace: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, then close.

        New work requests on surviving keep-alive connections answer 503
        (``Draining``) while existing in-flight work completes; after
        ``grace`` seconds any stragglers are abandoned to :meth:`close`.
        Returns True when in-flight work hit zero within the budget —
        what SIGTERM handling in ``python -m repro.service`` reports.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()  # stop accepting; close() waits for the connections
        budget = time.monotonic() + float(grace)
        while self.in_flight > 0 and time.monotonic() < budget:
            await asyncio.sleep(0.02)
        drained = self.in_flight == 0
        await self.close()
        return drained

    # -- connection / dispatch ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._next_request(reader, writer)
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            exc.status, {"error": error_envelope(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.headers.get("connection", "").lower() != "close"
                status, payload, extra_headers = await self._dispatch(request)
                if faults.fire("service.connection-drop") is not None:
                    # Injected network failure: hang up without writing the
                    # response, so clients exercise their reconnect path.
                    self.dropped_connections += 1
                    break
                if self._draining:
                    keep_alive = False  # shed keep-alives so drain converges
                writer.write(
                    encode_response(
                        status, payload, keep_alive=keep_alive, headers=extra_headers
                    )
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            writer.close()
            # CancelledError: event-loop teardown cancels handlers mid-close;
            # the socket is going away either way, so finish quietly.
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _next_request(self, reader, writer) -> Request | None:
        """The connection's next request; while waiting for it the connection is idle."""
        self._idle[writer] = asyncio.current_task()
        try:
            return await read_request(reader)
        finally:
            del self._idle[writer]

    async def _dispatch(self, request: Request) -> tuple[int, dict, dict | None]:
        label, method, handler, argument = self._route(request)
        histogram = self._histograms.setdefault(label, LatencyHistogram())
        is_work = label in _WORK_LABELS
        if is_work and self._draining:
            self._errors[label] = self._errors.get(label, 0) + 1
            envelope = {
                "type": "Draining",
                "message": "service is draining; no new work accepted",
            }
            return 503, {"error": envelope}, None
        if is_work and self.max_in_flight and self.in_flight >= self.max_in_flight:
            # Shed rather than queue: the client's Retry-After backoff is
            # the queue, and it is bounded on *their* side.
            self.shed += 1
            self._errors[label] = self._errors.get(label, 0) + 1
            envelope = {
                "type": "Overloaded",
                "message": (
                    f"{self.in_flight} requests in flight (cap {self.max_in_flight}); "
                    "retry after backoff"
                ),
            }
            return 429, {"error": envelope}, {"Retry-After": "1"}
        rule = faults.fire("service.slow-response")
        if rule is not None:
            await asyncio.sleep(float(rule.params.get("seconds", 1.0)))
        if is_work:  # probes never count toward the work cap
            self.in_flight += 1
        start = time.perf_counter()
        deadline = None
        try:
            if handler is None:
                raise HttpError(404, f"no route for {request.path!r}")
            if request.method != method:
                raise HttpError(405, f"{request.path} only accepts {method}")
            deadline = self._deadline_for(request) if is_work else None
            if deadline is not None:
                status, payload = await asyncio.wait_for(
                    handler(request, argument), deadline
                )
            else:
                status, payload = await handler(request, argument)
        except HttpError as exc:
            status, payload = exc.status, {"error": error_envelope(exc)}
        except EnvelopeError as exc:  # the spec failed to resolve or to run
            status, payload = 400, {"error": error_envelope(exc)}
        except TimeoutError:  # asyncio.wait_for: the deadline fired
            self.deadline_hits += 1
            budget = f"its {deadline * 1e3:.0f} ms deadline" if deadline else "a deadline"
            status, payload = 504, {
                "error": {"type": "DeadlineExceeded", "message": f"request exceeded {budget}"}
            }
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
            status, payload = 500, {"error": error_envelope(exc)}
        finally:
            if is_work:
                self.in_flight -= 1
            histogram.observe(time.perf_counter() - start)
        if status >= 400:
            self._errors[label] = self._errors.get(label, 0) + 1
        return status, payload, None

    def _deadline_for(self, request: Request) -> float | None:
        """Effective deadline (seconds): ``x-deadline-ms`` header else config."""
        raw = request.headers.get("x-deadline-ms")
        if raw is None:
            return self.deadline_seconds
        try:
            ms = float(raw)
        except ValueError:
            raise HttpError(400, f"x-deadline-ms is not a number: {raw!r}") from None
        if not 0 < ms < math.inf:  # also rejects nan, and 1e400 parsed as inf
            raise HttpError(400, f"x-deadline-ms must be finite and > 0, got {raw}")
        return ms / 1e3

    def _route(self, request: Request):
        """Resolve one request to ``(stats label, method, handler, argument)``."""
        path = request.path.rstrip("/") or "/"
        if path == "/v1/health":
            return "GET /v1/health", "GET", self._handle_health, None
        if path == "/v1/stats":
            return "GET /v1/stats", "GET", self._handle_stats, None
        if path == "/v1/simulate":
            return "POST /v1/simulate", "POST", self._handle_simulate, None
        if path == "/v1/batch":
            return "POST /v1/batch", "POST", self._handle_batch, None
        if path.startswith("/v1/result/"):
            key = path[len("/v1/result/"):]
            return "GET /v1/result", "GET", self._handle_result, key
        return request.method + " " + path, request.method, None, None

    # -- handlers ------------------------------------------------------------

    async def _handle_health(self, request: Request, _argument) -> tuple[int, dict]:
        return 200, {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "schema_version": ENGINE_SCHEMA_VERSION,
            "workers": self.executor.workers,
            "cache": self.cache is not None,
            "draining": self._draining,
        }

    async def _handle_stats(self, request: Request, _argument) -> tuple[int, dict]:
        cache_stats = None
        if self.cache is not None:
            cache_stats = await asyncio.to_thread(self.cache.stats)
        requests = {}
        total_hits = total = 0
        for label, histogram in sorted(self._histograms.items()):
            requests[label] = {
                **histogram.to_dict(),
                "errors": self._errors.get(label, 0),
            }
        if cache_stats is not None:
            total_hits = cache_stats["hits"]
            total = cache_stats["hits"] + cache_stats["misses"]
        return 200, {
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "in_flight": self.in_flight,
            "runs": self.executor.runs,
            "coalesced": self.executor.coalesced,
            "shed": self.shed,
            "deadline_hits": self.deadline_hits,
            "worker_retries": self.executor.worker_retries,
            "dropped_connections": self.dropped_connections,
            "draining": self._draining,
            "limits": {
                "max_in_flight": self.max_in_flight or None,
                "deadline_ms": None
                if self.deadline_seconds is None
                else round(self.deadline_seconds * 1e3, 3),
                "worker_attempts": MAX_ATTEMPTS,
                "worker_timeout_s": self.executor.worker_timeout,
            },
            "faults": faults.describe(),
            "cache": cache_stats,
            "cache_hit_rate": round(total_hits / total, 4) if total else None,
            "requests": requests,
        }

    async def _handle_simulate(self, request: Request, _argument) -> tuple[int, dict]:
        spec, error = prepare_spec(request.json())
        if error is not None:
            return 400, {"error": error}
        key, source, result = await asyncio.wrap_future(self.executor.submit(spec))
        return 200, simulate_payload(key, source, result, spec)

    async def _handle_batch(self, request: Request, _argument) -> tuple[int, dict]:
        try:
            entries = batch_entries(request.json())
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        start = time.perf_counter()
        batch = await asyncio.to_thread(Batch, entries, self.executor.key_for)
        runs = [asyncio.wrap_future(future) for future in batch.submit(self.executor)]
        await asyncio.gather(*runs, return_exceptions=True)
        return 200, batch_document(batch.items(), time.perf_counter() - start)

    async def _handle_result(self, request: Request, key: str) -> tuple[int, dict]:
        if not _KEY_RE.match(key):
            raise HttpError(400, f"result key must be a sha256 hex digest, got {key!r}")
        if self.cache is None:
            raise HttpError(404, "service is running without a result cache")
        cached = await asyncio.to_thread(self.cache.get, key)
        if cached is None:
            raise HttpError(404, f"no cached result under key {key}")
        return 200, result_payload(key, FROM_CACHE, cached)

"""Network-facing scenario service: asyncio HTTP/JSON over ``repro.serve``.

A :class:`~repro.scenario.ScenarioSpec` is already a strict, hashable
JSON payload, and its ensemble result is a pure function of (canonical
spec JSON, seed, engine schema version) — so serving simulations is a
read-heavy, content-addressed workload.  This package puts a socket in
front of that fact with **no new runtime dependency**: the HTTP/1.1
framing is hand-rolled on :mod:`asyncio` streams (:mod:`.http`), requests
parse through the same strict ``ScenarioSpec.from_dict`` the library
uses everywhere, and every request then goes through the one execution
core, :class:`repro.serve.executor.Executor`, whose run is the one place a
spec's registry names are resolved: concurrent duplicate
requests coalesce onto one run, hits come from the result cache, and
misses run on in-process threads or a spawn-context process pool, with
bounded crash/stall retry.

Run it with ``python -m repro.service`` (or spawn it through ``repro
load``); drive it with :class:`~repro.service.client.ServiceClient`, the
program's one HTTP client, or plain ``curl``.

Wire schema
-----------
All bodies are strict JSON (``NaN``/``Infinity`` never appear; they are
serialized as ``null``).  Every error, at any status, is the envelope
``{"error": {"type": <exception class>, "message": <text>}}`` — the same
per-item envelope ``repro batch --json`` reports.

400 covers every deterministic spec failure: a body that does not parse,
a registry name or parameter the run's resolve rejects, and a spec that
fails while it runs.  Its envelope carries the exception the library
raises for that spec.  500 means the executor could not finish a run
(``WorkerPoolError``: every bounded retry crashed or stalled); that
holds for ``/v1/batch`` too, where such a run fails the whole batch.

``POST /v1/simulate`` — body: one scenario object (exactly the
``ScenarioSpec.to_dict()`` schema; unknown keys are rejected, the seed
must be concrete).  Response 200::

    {"key": <sha256 hex>,             # content-addressed cache key
     "source": "run"|"cache"|"coalesced",
     "spec": {...},                   # the parsed spec, echoed
     "replicas": R,
     "plurality_color": c,
     "plurality_win_rate": f|null, "convergence_rate": f|null,
     "winners": [R ints], "rounds": [R ints], "converged": [R bools],
     "rounds_summary": {"mean": ..., "median": ..., ...},
     "stop_reasons": {<rule>: count, ...},
     "trace": null | {"metrics": [...], "every": m,
                      "rounds_recorded": T, "replicas": R,
                      "digest": <sha256 of the TraceSet>}}

The ``winners``/``rounds``/``converged`` vectors plus ``trace.digest``
make end-to-end bit-identity checkable from the client side; cold run,
warm replay and a direct :func:`~repro.scenario.simulate_ensemble` agree
on all of them at equal seed.  ``repro simulate --json`` prints this
body for its spec (``source: "run"``, ``key: null`` when the spec has
no seed), plus ``wall_seconds``.

``POST /v1/batch`` — body: an array of scenario objects (or
``{"scenarios": [...]}``).  Invalid items do **not** abort the batch:
every item is parsed up front and answered positionally.  An item that
does not parse answers ``"key": null``; one that fails to resolve or to
run carries its ``key``.  Response 200::

    {"requests": N, "unique": U, "hits": h, "misses": m, "deduped": d,
     "coalesced": c, "errors": e, "wall_seconds": s,
     "items": [ <simulate payload + "error": null>
                | {"key": <hex>|null, "source": "error",
                   "error": {"type": ..., "message": ...}}, ... ]}

Duplicate items within one batch share the first occurrence's
execution and report ``"source": "dedup"``, or its error envelope when
it failed.  The counters count the items by source: ``hits`` (cache),
``misses`` (the items that ran), ``deduped``, ``coalesced`` and
``errors``, so a run that failed counts in ``errors``; ``unique`` is
the number of distinct keys.  ``repro batch --json`` prints this same
document, and :meth:`repro.serve.executor.BatchReport.summary` returns
its counters: :func:`~repro.serve.executor.run_batch` and ``/v1/batch``
both go through :class:`~repro.serve.executor.Batch` and
:func:`~repro.serve.executor.batch_document`.

``GET /v1/result/{key}`` — content-addressed lookup of a previously
computed result (``key`` is the 64-hex-digit cache key).  200 with the
simulate payload (``source: "cache"``, no ``spec`` echo) or 404.

``GET /v1/health`` — liveness: ``{"status": "ok", "version": ...,
"schema_version": ..., "workers": ..., "cache": bool, "draining": bool}``.

``GET /v1/stats`` — counters: ``in_flight`` (work requests being
answered), ``runs`` (underlying executions), ``coalesced`` (requests
that awaited another request's run — two concurrent duplicates show
``runs == 1, coalesced == 1``), ``cache`` (the
:meth:`~repro.serve.cache.ResultCache.stats` dict, including the
``quarantined``/``read_errors`` corruption counters), ``cache_hit_rate``,
resilience counters (``shed``, ``deadline_hits``,
``worker_retries``, ``dropped_connections``, ``draining``, ``limits``,
``faults`` — the armed fault plan's trigger state, or ``null``), and
per-endpoint latency histograms under ``requests``
(``count``/``errors``/``mean_ms``/``min_ms``/``max_ms``/``p50_ms``/``p95_ms``/``p99_ms``).
``min_ms``/``max_ms`` are exact; each quantile is its log-spaced bucket's
upper edge clamped into ``[min_ms, max_ms]``, so it never exceeds an
observed latency.  The latency fields are ``null`` until a request on
that endpoint completes.

Resilience status codes
-----------------------
Beyond 200/400/404/405/500, clients must expect:

* **429** — the work cap (``--max-in-flight``, counting simulate and
  batch requests only) is hit; the request was shed before any work
  started.  Carries a ``Retry-After: 1`` header and
  an ``Overloaded`` envelope; retry with backoff
  (:class:`~repro.service.client.RetryPolicy` does this).
* **503** — the service is draining after SIGTERM; a ``Draining``
  envelope, and the connection closes after the response.  In-flight
  work still completes within the drain grace.
* **504** — the request's own deadline expired (``--deadline-ms``
  config or an ``x-deadline-ms`` request header, header wins): a
  ``DeadlineExceeded`` envelope.  A deadline bounds only that request's
  wait: the run it started finishes and is cached, and requests that
  coalesced onto it still get 200.

All three are *safe to retry*: results are content-addressed, so a
resent request either recomputes deterministically or hits the cache.

The load harness (:mod:`.load`) replays the committed seeded corpus
``benchmarks/load/corpus.json`` against a spawned service, one
:class:`~repro.service.client.ServiceClient` per virtual-user thread —
see ``repro load --help`` and the README's "Serving over the network"
section.  Under ``--fault-plan`` it doubles as the chaos harness: the
report gains a ``degraded`` verdict asserting nothing worse than 429/504
leaked while the injected faults (:mod:`repro.faults`) were firing.
"""

import importlib

#: Public name -> defining submodule.  The submodules load on first
#: attribute access, so ``python -m repro.service`` and the ``repro`` CLI
#: can import the flag definitions in :mod:`.__main__` without the stack.
_EXPORTS = {
    "BackgroundServer": "runner",
    "LatencyHistogram": "app",
    "RetryPolicy": "client",
    "ScenarioService": "app",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ServiceUnavailable": "client",
    "drive": "load",
    "generate_corpus": "load",
    "result_payload": "app",
    "run_load": "load",
    "spawn_service": "load",
    "write_corpus": "load",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)

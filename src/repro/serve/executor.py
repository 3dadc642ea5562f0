"""The execution core: coalescing, cache, pool and retry for every caller.

On the clique each of the paper's dynamics is a finite Markov chain driven
by the spec's seed, so an ensemble result is a pure function of (spec,
seed, engine schema), and a key is a function of the spec alone.  That is
what makes dedup, coalescing, caching and crash retry sound, and
:class:`Executor` is the one place that does them.  The service's
``/v1/simulate`` calls :meth:`Executor.submit`, which returns a per-caller
:class:`~concurrent.futures.Future` of ``(key, source, result)``:

* **coalescing** — one lock-guarded in-flight table: while a key runs,
  later submits of it wait on that run (source ``"coalesced"``);
* **cache** — the run's owner probes the :class:`~repro.serve.cache.ResultCache`
  (source ``"cache"``).  A fresh result (source ``"run"``) is stored in
  both layers before any waiter wakes: the run writes its disk entry where
  it ran (:func:`~repro.serve.cache.write_entry`, in the pool worker or on
  the owner thread), so the serving process encodes and writes nothing,
  and the owner then stores the result in the memory layer;
* **execution** — one persistent spawn-context process pool
  (``workers >= 1``; spawn for BLAS-thread safety, stateless workers,
  spec JSON and where to write its cache entry in, small arrays back) or
  in-process threads (``workers = 0``);
* **retry** — one loop of up to :data:`MAX_ATTEMPTS` with jittered
  exponential backoff.  A fault the worker *raised* retries on the same
  pool: the worker is alive, and a fresh one would re-arm
  ``$REPRO_FAULT_PLAN`` and replay the same fault.  A pool that is broken
  (a worker died) or stalled (no answer within ``worker_timeout``) is
  replaced, once per pool however many runs it took down.

The executor, not a caller, owns each run.  A caller that stops waiting
(the service's request deadline) drops only its own future; the run
finishes, is cached, and every coalesced caller gets it.

A batch has one path, :class:`Batch`, which :func:`run_batch` (and so
``repro batch``) and the service's ``/v1/batch`` share: it parses and
keys each raw entry once, submits the first occurrence of each key, and
answers one :class:`BatchItem` per entry in request order.  One rule
says what a batch body is (:func:`batch_entries`), and one function
renders the answer (:func:`batch_document`): ``/v1/batch`` answers that
document, ``repro batch --json`` prints it, and
:meth:`BatchReport.summary` returns its counters (:func:`batch_counters`).

Failure semantics (tested in ``tests/test_serve.py``): a spec that raises
inside a worker is a deterministic item failure — it never retries, is
never cached, and every waiter gets :class:`~repro.serve.envelope.EnvelopeError`
carrying its ``{"type", "message"}`` envelope, which a batch puts in that
item; a run still failing after :data:`MAX_ATTEMPTS` raises
:class:`WorkerPoolError`, which fails a whole batch.  Both worker faults
are injectable through :mod:`repro.faults` (``executor.worker-crash`` /
``executor.worker-stall``), which is how the chaos suite exercises them.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import random
import threading
import time
from collections import Counter
from collections.abc import Callable, Sequence
from concurrent.futures import (
    CancelledError,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .. import faults
from ..core.process import ENGINE_SCHEMA_VERSION, EnsembleResult
from ..scenario import ScenarioSpec, simulate_ensemble
from .cache import ResultCache, cache_key, write_entry
from .envelope import EnvelopeError, error_envelope, prepare_spec, result_payload

__all__ = [
    "Batch",
    "BatchItem",
    "BatchReport",
    "Executor",
    "WorkerPoolError",
    "batch_counters",
    "batch_document",
    "batch_entries",
    "run_batch",
]

#: Provenance labels (``source``) of a result.
FROM_CACHE = "cache"
FROM_RUN = "run"
FROM_COALESCED = "coalesced"
FROM_DEDUP = "dedup"
FROM_ERROR = "error"

#: Attempts per run before :class:`WorkerPoolError`.  8 puts exhaustion
#: under an injected crash probability of 0.2 at ~2.6e-6 per run, so the
#: chaos smoke's no-500 assertion is sound.
MAX_ATTEMPTS = 8
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0

#: Owner threads over a process pool.  They only wait on the pool, so a
#: wide pool of them keeps cache hits from queueing behind misses held in
#: workers.  With ``workers=0`` the owner threads run the simulations and
#: keep the ``ThreadPoolExecutor`` default width.
_POOL_OWNERS = 32


class WorkerPoolError(RuntimeError):
    """A run still failed (worker crash or stall) after every attempt."""


def backoff_delay(attempt: int, jitter: random.Random) -> float:
    """Exponential backoff with jitter: uniformly 50–150% of the nominal step.

    The jitter source is an explicit ``random.Random`` so schedules are
    reproducible (the executor seeds it from the run's content address).
    """
    nominal = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * (2 ** attempt))
    return nominal * (0.5 + jitter.random())


def _run_task(
    spec_json: str,
    root: Path | None = None,
    key: str = "",
    schema_version: int = ENGINE_SCHEMA_VERSION,
) -> EnsembleResult | dict:
    """Worker: run one spec; the result, or an error envelope for an item failure.

    Module-level (picklable) and stateless; the spec JSON is the entire
    task, plus where its result is cached: with a cache ``root`` a result
    is written to ``<root>/<key>.entry`` under ``schema_version`` before it
    is returned.  Injected faults fire before the per-item catch: they
    model *infrastructure* failures, which are retryable, unlike a spec
    that fails the same way on every attempt.
    """
    rule = faults.fire("executor.worker-crash")
    if rule is not None:
        if rule.params.get("hard"):
            # Simulated hard death: the pool sees a vanished worker
            # (BrokenProcessPool), exactly like an OOM kill.
            os._exit(3)
        raise faults.InjectedWorkerCrash("injected worker crash")
    rule = faults.fire("executor.worker-stall")
    if rule is not None:
        time.sleep(float(rule.params.get("seconds", 30.0)))
    try:
        result = simulate_ensemble(ScenarioSpec.from_json(spec_json))
    except Exception as exc:  # noqa: BLE001 — becomes the item's envelope
        return error_envelope(exc)
    if root is not None:
        write_entry(root, key, result, schema_version)
    return result


class Executor:
    """Runs specs once per content address; see the module docstring.

    Parameters
    ----------
    cache:
        :class:`ResultCache` to probe and fill; ``None`` runs every key
        that is not already in flight.
    workers:
        ``0`` runs on in-process threads; ``>= 1`` is the width of one
        persistent spawn-context process pool (processes start on demand).
    worker_timeout:
        Seconds to wait for one pooled attempt before the pool counts as
        stalled and is replaced (``None``: wait forever).  Threads cannot
        be timed out, so ``workers=0`` ignores it.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        workers: int = 0,
        worker_timeout: float | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if worker_timeout is not None and not 0 < worker_timeout < math.inf:
            raise ValueError(f"worker_timeout must be finite and > 0, got {worker_timeout}")
        self.cache = cache
        self.workers = int(workers)
        self.worker_timeout = None if worker_timeout is None else float(worker_timeout)
        self._lock = threading.Lock()
        #: key → waiting futures; the first is the owner's.
        self._inflight: dict[str, list[Future]] = {}
        self._pool = self._new_pool() if self.workers else None
        self._owners = ThreadPoolExecutor(
            max_workers=_POOL_OWNERS if self.workers else None,
            thread_name_prefix="repro-executor",
        )
        self.runs = 0
        self.coalesced = 0
        #: Retries per key, for keys that needed any.
        self.retries: Counter[str] = Counter()

    @property
    def worker_retries(self) -> int:
        with self._lock:  # owner threads add keys concurrently
            return sum(self.retries.values())

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=mp.get_context("spawn")
        )

    def key_for(self, spec: ScenarioSpec) -> str:
        if self.cache is not None:
            return self.cache.key_for(spec)
        return cache_key(spec)

    def submit(self, spec: ScenarioSpec) -> Future:
        """A new future of ``(key, source, result)`` for ``spec``.

        Cancelling the returned future only drops this caller; the run
        goes on for the others.
        """
        return self._submit(self.key_for(spec), spec)

    def _submit(self, key: str, spec: ScenarioSpec) -> Future:
        future: Future = Future()
        with self._lock:
            waiters = self._inflight.get(key)
            if waiters is not None:
                waiters.append(future)
                self.coalesced += 1
                return future
            self._inflight[key] = [future]
        try:
            self._owners.submit(self._own, key, spec.to_json(indent=None))
        except RuntimeError as exc:  # closed
            self._settle(key, error=exc)
        return future

    def close(self) -> None:
        """Stop taking work.  Runs already started finish in the background;
        callers still waiting get a ``RuntimeError``."""
        with self._lock:
            pool, self._pool = self._pool, None
            stranded, self._inflight = self._inflight, {}
        self._owners.shutdown(wait=False, cancel_futures=True)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        closed = RuntimeError("executor closed before the run finished")
        for key, waiters in stranded.items():
            self._wake(key, waiters, None, closed)

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- one run ---------------------------------------------------------------

    def _own(self, key: str, spec_json: str) -> None:
        """Own one key's run: cache probe, run, store, then wake every waiter."""
        try:
            source, result = FROM_CACHE, None
            if self.cache is not None:
                result = self.cache.get(key)
            if result is None:
                source, result = FROM_RUN, self._run(key, spec_json)
                if self.cache is not None:
                    self.cache.remember(key, result)  # the run wrote the disk entry
                with self._lock:
                    self.runs += 1
        except BaseException as exc:
            self._settle(key, error=exc)  # every waiter must wake
            raise
        self._settle(key, (source, result))

    def _run(self, key: str, spec_json: str) -> EnsembleResult:
        """The retry loop: the one place a run is attempted."""
        # Deterministic jitter keyed on the content address: replayable
        # schedules, uncorrelated across concurrent runs.
        jitter = random.Random(int(key[:16], 16))
        cache = self.cache
        task = (spec_json,) if cache is None else (spec_json, cache.root, key, cache.schema_version)
        error: BaseException | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                with self._lock:
                    self.retries[key] += 1
                time.sleep(backoff_delay(attempt - 1, jitter))
            pool = None
            try:
                if not self.workers:
                    payload = _run_task(*task)
                else:
                    with self._lock:
                        pool = self._pool
                        if pool is None:
                            raise RuntimeError("executor is closed")
                        running = pool.submit(_run_task, *task)
                    payload = running.result(self.worker_timeout)
            except faults.InjectedFault as exc:
                error = exc  # the worker raised and lives: same pool
                continue
            except (BrokenProcessPool, CancelledError) as exc:
                error = exc  # a worker died, or another run replaced the pool
                self._replace_pool(pool)
                continue
            except TimeoutError:
                error = TimeoutError(
                    f"worker stalled past worker_timeout={self.worker_timeout}s"
                )
                self._replace_pool(pool)  # the stalled worker is wedged
                continue
            if isinstance(payload, dict):  # the spec itself failed
                raise EnvelopeError(payload)
            return payload
        raise WorkerPoolError(
            f"run {key[:12]} still failing after {MAX_ATTEMPTS} attempts"
        ) from error

    def _replace_pool(self, pool: ProcessPoolExecutor | None) -> None:
        """Swap a broken or stalled pool for a fresh one, once per pool."""
        with self._lock:
            if pool is None or self._pool is not pool:
                return
            self._pool = self._new_pool()
        pool.shutdown(wait=False, cancel_futures=True)

    def _settle(self, key: str, outcome=None, error: BaseException | None = None) -> None:
        with self._lock:
            waiters = self._inflight.pop(key, [])
        self._wake(key, waiters, outcome, error)

    @staticmethod
    def _wake(key, waiters, outcome, error) -> None:
        for position, future in enumerate(waiters):
            try:
                if error is not None:
                    future.set_exception(error)
                else:
                    source, result = outcome
                    future.set_result((key, source if position == 0 else FROM_COALESCED, result))
            except InvalidStateError:
                pass  # that caller cancelled its own future


class BatchItem(NamedTuple):
    """One batch entry's answer: exactly one of ``result`` and ``error`` is None."""

    key: str | None  # None where the entry did not parse
    source: str  # FROM_CACHE, FROM_RUN, FROM_COALESCED, FROM_DEDUP or FROM_ERROR
    result: EnsembleResult | None
    error: dict[str, str] | None  # the entry failed to parse, resolve or run


def batch_entries(body) -> list:
    """The entries of a batch body: a non-empty JSON array, or ``{"scenarios": [...]}`` holding one.

    Raises ``ValueError`` for any other body.
    """
    if isinstance(body, dict) and "scenarios" in body:
        body = body["scenarios"]
    if not isinstance(body, list) or not body:
        raise ValueError('batch body must be a non-empty JSON array (or {"scenarios": [...]})')
    return body


class Batch:
    """One batch of raw entries on its way through an :class:`Executor`.

    Construction parses each entry with
    :func:`~repro.serve.envelope.prepare_spec` and keys each spec once with
    ``key_for`` (the executor's :meth:`Executor.key_for`); :meth:`submit`
    submits the first occurrence of each key; once every future it
    returned is done, :meth:`items` answers each entry in request order.
    """

    def __init__(self, entries: Sequence, key_for: Callable[[ScenarioSpec], str]):
        prepared = [prepare_spec(entry) for entry in entries]
        #: The parsed spec per entry, None where it did not parse.
        self.specs = [spec for spec, _ in prepared]
        self.keys = [None if spec is None else key_for(spec) for spec in self.specs]
        self._errors = [error for _, error in prepared]
        #: The first occurrence of each key, in request order.
        self.unique: dict[str, ScenarioSpec] = {}
        for key, spec in zip(self.keys, self.specs):
            if key is not None:
                self.unique.setdefault(key, spec)
        self._futures: dict[str, Future] = {}

    def submit(self, executor: Executor) -> list[Future]:
        """Submit each unique spec; the futures to wait on before :meth:`items`."""
        self._futures = {key: executor._submit(key, spec) for key, spec in self.unique.items()}
        return list(self._futures.values())

    def items(self) -> list[BatchItem]:
        """One item per entry, in request order, under one rule.

        A spec that fails to parse, resolve or run gets its error envelope
        in its own item, and so does each duplicate of it; a run the
        executor could not finish raises its :class:`WorkerPoolError`,
        failing the whole batch.
        """
        answers: dict[str, BatchItem] = {}
        for key, future in self._futures.items():
            try:
                answers[key] = BatchItem(*future.result(), None)
            except EnvelopeError as exc:  # this spec failed; its siblings did not
                answers[key] = BatchItem(key, FROM_ERROR, None, exc.envelope)
        items = []
        for key, error in zip(self.keys, self._errors):
            if key is None:
                items.append(BatchItem(None, FROM_ERROR, None, error))
                continue
            items.append(answers[key])
            if answers[key].error is None:  # later occurrences are duplicates
                answers[key] = answers[key]._replace(source=FROM_DEDUP)
        return items


def batch_counters(items: Sequence[BatchItem]) -> dict[str, int]:
    """A batch's counters: ``requests``, ``unique`` keys, and the items by source.

    ``hits``, ``misses``, ``deduped``, ``coalesced`` and ``errors`` count
    the items whose source is ``cache``, ``run``, ``dedup``, ``coalesced``
    and ``error``: a run that failed is an error, not a miss.
    """
    sources = Counter(item.source for item in items)
    return {
        "requests": len(items),
        "unique": len({item.key for item in items if item.key is not None}),
        "hits": sources[FROM_CACHE],
        "misses": sources[FROM_RUN],
        "deduped": sources[FROM_DEDUP],
        "coalesced": sources[FROM_COALESCED],
        "errors": sources[FROM_ERROR],
    }


def batch_document(items: Sequence[BatchItem], wall_seconds: float) -> dict[str, object]:
    """The JSON form of a batch: the ``/v1/batch`` body, and ``repro batch --json``.

    Its :func:`batch_counters`, ``wall_seconds``, and one item per entry:
    the entry's :func:`~repro.serve.envelope.result_payload` with
    ``"error": None``, or ``{"key", "source", "error"}`` where it failed.
    """
    return {
        **batch_counters(items),
        "wall_seconds": round(wall_seconds, 6),
        "items": [
            {"key": key, "source": source, "error": error}
            if error is not None
            else {**result_payload(key, source, result), "error": None}
            for key, source, result, error in items
        ],
    }


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` call, in request order."""

    #: One answer per request; :func:`batch_document` renders them.
    items: list[BatchItem]
    #: Per-request parsed spec; None where the entry did not parse.
    specs: list[ScenarioSpec | None] = field(repr=False)
    #: Per-key retry counts for runs a worker crash or stall interrupted.
    retries: dict[str, int] = field(default_factory=dict, repr=False)
    wall_seconds: float = 0.0

    @property
    def results(self) -> list[EnsembleResult | None]:
        """Per-request result; None where the entry failed (see :attr:`errors`)."""
        return [item.result for item in self.items]

    @property
    def keys(self) -> list[str | None]:
        """Per-request content address; None where the entry did not parse."""
        return [item.key for item in self.items]

    @property
    def sources(self) -> list[str]:
        """Per-request provenance: ``"cache"``, ``"run"``, ``"dedup"`` or ``"error"``."""
        return [item.source for item in self.items]

    @property
    def errors(self) -> list[dict | None]:
        """Per-request ``{"type", "message"}`` envelope where the entry failed
        to parse, resolve or run; None elsewhere."""
        return [item.error for item in self.items]

    @property
    def requests(self) -> int:
        return len(self.items)

    def summary(self) -> dict[str, object]:
        """The batch document's counters, plus ``wall_seconds``."""
        return {**batch_counters(self.items), "wall_seconds": self.wall_seconds}


def run_batch(
    specs: Sequence,
    *,
    cache: ResultCache | None = None,
    processes: int | None = None,
    worker_timeout: float | None = None,
) -> BatchReport:
    """Execute ``specs`` through one :class:`Executor`, in request order.

    Each entry is a :class:`~repro.scenario.ScenarioSpec` or its dict form
    with a concrete ``seed``; the entries go through one :class:`Batch`.
    ``processes`` is the pool width (``None``: one per CPU, at most one per
    unique spec); a width of 1 runs on in-process threads.  An entry that
    fails to parse, resolve or run becomes that item's ``"error"``
    envelope, and its siblings still run; a run still crashing or
    stalling after :data:`MAX_ATTEMPTS` raises :class:`WorkerPoolError`.
    Duplicate requests share one ``EnsembleResult`` object; treat results
    as read-only.
    """
    start = time.perf_counter()
    batch = Batch(specs, cache_key if cache is None else cache.key_for)
    width = processes if processes is not None else os.cpu_count() or 1
    width = min(width, len(batch.unique))  # a pool needs no more workers than unique specs
    with Executor(
        cache, workers=width if width > 1 else 0, worker_timeout=worker_timeout
    ) as executor:
        wait(batch.submit(executor))
        retries = dict(executor.retries)
    return BatchReport(
        items=batch.items(),
        specs=batch.specs,
        retries=retries,
        wall_seconds=time.perf_counter() - start,
    )

"""The execution core: coalescing, cache, pool and retry for every caller.

On the clique each of the paper's dynamics is a finite Markov chain driven
by the spec's seed, so an ensemble result is a pure function of (spec,
seed, engine schema).  That is what makes dedup, coalescing, caching and
crash retry sound, and :class:`Executor` is the one place that does them.
``run_batch`` / ``repro batch`` and the service's ``/v1/simulate`` and
``/v1/batch`` all go through :meth:`Executor.submit`, which returns a
per-caller :class:`~concurrent.futures.Future` of ``(key, source, result)``:

* **coalescing** — one lock-guarded in-flight table: while a key runs,
  later submits of it wait on that run (source ``"coalesced"``);
* **cache** — the run's owner probes the :class:`~repro.serve.cache.ResultCache`
  (source ``"cache"``), and stores a fresh result (source ``"run"``)
  before any waiter wakes;
* **execution** — one persistent spawn-context process pool
  (``workers >= 1``; spawn for BLAS-thread safety, stateless workers,
  spec JSON in, small arrays back) or in-process threads (``workers = 0``);
* **retry** — one loop of up to :data:`MAX_ATTEMPTS` with jittered
  exponential backoff.  A fault the worker *raised* retries on the same
  pool: the worker is alive, and a fresh one would re-arm
  ``$REPRO_FAULT_PLAN`` and replay the same fault.  A pool that is broken
  (a worker died) or stalled (no answer within ``worker_timeout``) is
  replaced, once per pool however many runs it took down.

The executor, not a caller, owns each run.  A caller that stops waiting
(the service's request deadline) drops only its own future; the run
finishes, is cached, and every coalesced caller gets it.

Failure semantics (tested in ``tests/test_serve.py``): a spec that raises
inside a worker is a deterministic item failure — it never retries, is
never cached, and every waiter gets :class:`~repro.serve.envelope.EnvelopeError`
carrying its ``{"type", "message"}`` envelope; a run still failing after
:data:`MAX_ATTEMPTS` raises :class:`WorkerPoolError`.  Both worker faults
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
from collections.abc import Sequence
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

from .. import faults
from ..core.process import EnsembleResult
from ..core.rng import make_rng
from ..scenario import ScenarioSpec, simulate_ensemble
from .cache import ResultCache, cache_key
from .envelope import EnvelopeError, error_envelope

__all__ = ["BatchReport", "Executor", "WorkerPoolError", "run_batch"]

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


def _run_task(spec_json: str, seed) -> EnsembleResult | dict:
    """Worker: run one spec; the result, or an error envelope for an item failure.

    Module-level (picklable) and stateless; the spec JSON and the seed are
    the entire task.  Injected faults fire before the per-item catch: they
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
        spec = ScenarioSpec.from_json(spec_json)
        return simulate_ensemble(spec, rng=None if seed is None else make_rng(seed))
    except Exception as exc:  # noqa: BLE001 — becomes the item's envelope
        return error_envelope(exc)


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

    def key_for(self, spec: ScenarioSpec, seed=None) -> str:
        if self.cache is not None:
            return self.cache.key_for(spec, seed=seed)
        return cache_key(spec, seed=seed)

    def submit(self, spec: ScenarioSpec, seed=None) -> Future:
        """A new future of ``(key, source, result)`` for ``spec``.

        ``seed`` overrides the spec's own seed, as in :func:`cache_key`.
        Cancelling the returned future only drops this caller; the run
        goes on for the others.
        """
        return self._submit(self.key_for(spec, seed), spec, seed)

    def _submit(self, key: str, spec: ScenarioSpec, seed) -> Future:
        future: Future = Future()
        with self._lock:
            waiters = self._inflight.get(key)
            if waiters is not None:
                waiters.append(future)
                self.coalesced += 1
                return future
            self._inflight[key] = [future]
        try:
            self._owners.submit(self._own, key, spec.to_json(indent=None), seed)
        except RuntimeError as exc:  # closed
            self._settle(key, error=exc)
        return future

    def submit_unique(
        self, specs: Sequence[ScenarioSpec]
    ) -> tuple[list[str], list[Future | None]]:
        """Submit the first occurrence of each key; later duplicates get None."""
        keys = [self.key_for(spec) for spec in specs]
        first: set[str] = set()
        futures: list[Future | None] = []
        for key, spec in zip(keys, specs):
            futures.append(None if key in first else self._submit(key, spec, None))
            first.add(key)
        return keys, futures

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

    def _own(self, key: str, spec_json: str, seed) -> None:
        """Own one key's run: cache probe, run, store, then wake every waiter."""
        try:
            source, result = FROM_CACHE, None
            if self.cache is not None:
                result = self.cache.get(key)
            if result is None:
                source, result = FROM_RUN, self._run(key, spec_json, seed)
                if self.cache is not None:
                    self.cache.put(key, result)
                with self._lock:
                    self.runs += 1
        except BaseException as exc:
            self._settle(key, error=exc)  # every waiter must wake
            raise
        self._settle(key, (source, result))

    def _run(self, key: str, spec_json: str, seed) -> EnsembleResult:
        """The retry loop: the one place a run is attempted."""
        # Deterministic jitter keyed on the content address: replayable
        # schedules, uncorrelated across concurrent runs.
        jitter = random.Random(int(key[:16], 16))
        error: BaseException | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                with self._lock:
                    self.retries[key] += 1
                time.sleep(backoff_delay(attempt - 1, jitter))
            pool = None
            try:
                if not self.workers:
                    payload = _run_task(spec_json, seed)
                else:
                    with self._lock:
                        pool = self._pool
                        if pool is None:
                            raise RuntimeError("executor is closed")
                        task = pool.submit(_run_task, spec_json, seed)
                    payload = task.result(self.worker_timeout)
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


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` call, in request order."""

    results: list[EnsembleResult | None]
    keys: list[str]
    #: Per-request provenance: ``"cache"`` (served from the cache), ``"run"``
    #: (freshly executed), ``"dedup"`` (duplicate of an earlier request in
    #: the same batch), or ``"error"`` (the item failed inside a worker;
    #: see :attr:`errors`).
    sources: list[str] = field(repr=False)
    #: Per-request ``{"type", "message"}`` envelope where the item failed
    #: in a worker, None elsewhere — aligned with :attr:`results`, which
    #: holds None at the same positions.
    errors: list[dict | None] = field(default_factory=list, repr=False)
    #: Per-key retry counts for runs a worker crash or stall interrupted.
    retries: dict[str, int] = field(default_factory=dict, repr=False)
    hits: int = 0
    misses: int = 0
    deduped: int = 0
    failed: int = 0
    wall_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.results)

    def summary(self) -> dict[str, object]:
        """JSON-able batch-level counters (what ``repro batch`` prints)."""
        return {
            "requests": self.requests,
            "unique": self.requests - self.deduped,
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "failed": self.failed,
            "retries": int(sum(self.retries.values())),
            "wall_seconds": self.wall_seconds,
        }


def run_batch(
    specs: Sequence[ScenarioSpec],
    *,
    cache: ResultCache | None = None,
    processes: int | None = None,
    worker_timeout: float | None = None,
) -> BatchReport:
    """Execute ``specs`` through one :class:`Executor`, in request order.

    Every spec must have a concrete ``seed``.  Duplicates are deduped by
    key, then each unique spec is submitted.  ``processes`` is the pool
    width (``None``: one per CPU, at most one per unique spec); a width of
    1 runs on in-process threads.  A worker failure becomes that item's
    ``"error"`` envelope; a run still crashing or stalling after
    :data:`MAX_ATTEMPTS` raises :class:`WorkerPoolError`.  Duplicate
    requests share one ``EnsembleResult`` object; treat results as
    read-only.
    """
    specs = list(specs)
    for position, spec in enumerate(specs):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"specs[{position}] is not a ScenarioSpec: {spec!r}")
        if spec.seed is None:
            raise ValueError(
                f"specs[{position}] has seed=None; batch execution needs concrete "
                "seeds so results are reproducible and cacheable"
            )
    start = time.perf_counter()
    width = processes if processes is not None else os.cpu_count() or 1
    if width > 1:  # a pool needs no more workers than unique specs
        width = min(width, len({cache_key(spec) for spec in specs}))
    with Executor(
        cache, workers=width if width > 1 else 0, worker_timeout=worker_timeout
    ) as executor:
        keys, futures = executor.submit_unique(specs)
        wait([future for future in futures if future is not None])
        retries = dict(executor.retries)

    outcome: dict[str, tuple[str, EnsembleResult | None, dict | None]] = {}
    for key, future in zip(keys, futures):
        if future is None:
            continue
        try:
            _key, source, result = future.result()
            outcome[key] = (source, result, None)
        except EnvelopeError as exc:  # one poisoned spec; siblings unaffected
            outcome[key] = (FROM_ERROR, None, exc.envelope)
    sources = [
        FROM_DEDUP if future is None else outcome[key][0]
        for key, future in zip(keys, futures)
    ]
    errors = [outcome[key][2] for key in keys]
    return BatchReport(
        results=[outcome[key][1] for key in keys],
        keys=keys,
        sources=sources,
        errors=errors,
        retries=retries,
        hits=sources.count(FROM_CACHE),
        misses=sources.count(FROM_RUN) + sources.count(FROM_ERROR),
        deduped=sources.count(FROM_DEDUP),
        failed=sum(1 for envelope in errors if envelope is not None),
        wall_seconds=time.perf_counter() - start,
    )

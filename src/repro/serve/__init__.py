"""Serving substrate: the content-addressed result cache + batch executor.

``repro.serve`` is the layer that turns the declarative scenario API into
something that can absorb heavy repeated traffic: :class:`ResultCache`
memoises :func:`~repro.scenario.simulate_ensemble` results under a
content-addressed key (canonical scenario JSON + seed + engine schema
version, so a function of the spec alone), :class:`Executor` is the one
execution core (coalescing, cache probe, process pool or threads,
bounded retry) behind every caller, and :func:`run_batch` executes many
specs at once through it — parsing each raw entry, deduping identical
requests, and answering each in request order — on the same per-item
path (:class:`~repro.serve.executor.Batch`) as the service's
``/v1/batch``.  The JSON form of a result
(:func:`~repro.serve.envelope.result_payload`) and of a batch
(:func:`~repro.serve.executor.batch_document`) live here too, so the
CLI prints what the service answers.

Results served from the cache are bit-identical to a direct
``simulate_ensemble`` call at equal seed, and cache entries written by an
older engine (see ``repro.core.process.ENGINE_SCHEMA_VERSION``) are
invalidated instead of served.
"""

from .cache import DEFAULT_MEMORY_ENTRIES, ResultCache, cache_key, default_cache_dir
from .envelope import error_envelope, prepare_spec
from .executor import BatchReport, Executor, run_batch

__all__ = [
    "BatchReport",
    "DEFAULT_MEMORY_ENTRIES",
    "Executor",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "error_envelope",
    "prepare_spec",
    "run_batch",
]

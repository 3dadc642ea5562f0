"""Experiment harness: scales, and the one path an experiment runs on.

Every experiment module exposes an :class:`ExperimentSpec` with two
functions of ``(scale, seed)``:

* ``specs(scale, seed)`` lists every engine run the experiment needs as a
  :class:`~repro.scenario.ScenarioSpec`, each with its own integer seed
  derived from the experiment's seed (:func:`spec_seed`);
* ``table(scale, seed, results)`` reads the
  :class:`~repro.core.process.EnsembleResult` of each spec, in the same
  order, into a :class:`ResultTable`.  Analytic work (E12's mean field)
  and E11's sequential population model run here too.

:meth:`ExperimentSpec.run` joins them through
:func:`~repro.serve.executor.run_batch` on in-process threads and without
a cache: the path ``repro batch`` takes.  So every engine run of E1–E13
has a cache key, and a second pass of an experiment's specs through one
:class:`~repro.serve.cache.ResultCache` makes no run at all.

Scales keep a single code path honest at three budgets:

* ``smoke`` — seconds; exercised by the integration tests;
* ``small`` — default CLI scale, tens of seconds;
* ``paper`` — the scale of the paper's own claims (PAPER.md).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.process import EnsembleResult
from ..core.rng import derive_seed
from ..scenario import ScenarioSpec
from ..serve.executor import run_batch
from .results import ResultTable

__all__ = [
    "SCALES",
    "ExperimentSpec",
    "first_round_at_least",
    "spec_seed",
]

#: Recognised scale presets, ordered by budget.
SCALES = ("smoke", "small", "paper")


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata, runs and table of one experiment (one paper claim)."""

    id: str
    title: str
    claim: str
    specs: Callable[[str, int], list[ScenarioSpec]]
    table: Callable[[str, int, Sequence[EnsembleResult]], ResultTable]
    tags: tuple[str, ...] = field(default_factory=tuple)

    def run(self, scale: str = "small", seed: int = 0) -> ResultTable:
        """Run every spec of ``(scale, seed)`` in process, then build the table."""
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        report = run_batch(self.specs(scale, seed), processes=1)
        for error in report.errors:
            if error is not None:
                raise RuntimeError(f"{self.id}: a run failed: {error['type']}: {error['message']}")
        return self.table(scale, seed, report.results)

    __call__ = run


def spec_seed(seed: int, *path: int | str) -> int:
    """The integer seed of the run named by ``path`` in an experiment at ``seed``.

    A 32-bit word of :func:`~repro.core.rng.derive_seed`'s stream, so
    distinct paths give independent runs and a spec stays plain JSON.
    """
    return int(derive_seed(seed, *path).generate_state(1)[0])


def first_round_at_least(result: EnsembleResult, metric: str, threshold: float) -> np.ndarray:
    """Per replica, the first recorded round at which ``metric`` reaches ``threshold``.

    Reads each replica's valid trace prefix; a replica that never gets
    there reads ``max_rounds``.
    """
    trace = result.trace
    hit = (trace[metric] >= threshold) & trace.valid_mask()
    return np.where(hit.any(axis=1), trace.rounds[hit.argmax(axis=1)], result.max_rounds)

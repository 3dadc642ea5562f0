"""Replica-batched graph engine: the general-graph analogue of the runners.

On a general graph the counts are not a Markov chain — *where* each color
sits matters — so the state of a replica is its full ``(n,)`` color vector
and an ensemble is an ``(R, n)`` color matrix.  This module steps that
matrix in lock-step, mirroring the counts-level
:func:`~repro.core.process._run_ensemble_batched` contract exactly:

* **one vectorized CSR gather per round** — per-replica neighbor draws are
  cheap bounded-integer calls on each replica's own stream, but the color
  gather, the per-agent reduction (for rules that consume no tie-break
  randomness), the per-replica histograms and the absorption scan all run
  batched across the live replicas;
* **per-replica randomness** — every replica consumes its spawned stream
  in exactly the order the sequential single-replica run does (coloring,
  then per round: neighbor picks, then any tie-break draws), so
  ``batch=True`` and ``batch=False`` are **bit-identical** at equal seed;
* **shared observation/stopping machinery** — per-replica color histograms
  feed :meth:`StoppingRule.met_many` / ``fired_many`` and the
  :class:`~repro.core.metrics.TraceRecorder`, with run_process's t=0
  evaluation, record-before-retire ordering and ``stopped_by`` vocabulary,
  so a graph run returns a standard :class:`~repro.core.process.EnsembleResult`
  that serializes through the serve cache unchanged.

A dynamics participates through a :class:`GraphKernel` — its per-agent
decision rule ``f(own, seen) -> color`` lifted to aligned arrays.  Rules
whose clique engines already are per-agent laws (3-majority, the 3-input
family, h-plurality, voter, two-choices, median, 2-sample-uniform) map
directly; dynamics carrying non-color state (undecided-state) have no
graph kernel and are rejected with a reason (:func:`graph_ineligibility`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.config import Configuration
from ..core.dynamics import Dynamics
from ..core.majority import HPlurality, ThreeMajority, TwoSampleUniform
from ..core.median import MedianDynamics
from ..core.metrics import RecordSpec, TraceRecorder, as_record_spec, stack_traces
from ..core.process import (
    DEFAULT_PROCESS_RECORD,
    _MONO,
    _resolve_stopping,
    EnsembleResult,
    ProcessResult,
)
from ..core.rng import make_rng, spawn_streams
from ..core.samplers import row_counts_dense, row_plurality
from ..core.stopping import BUDGET_EXHAUSTED, StoppingRule
from ..core.threeinput import ThreeInputRule
from ..core.voter import TwoChoices, Voter
from .topology import Topology

__all__ = [
    "GraphKernel",
    "graph_kernel",
    "graph_ineligibility",
    "run_graph_process",
    "run_graph_ensemble",
]


@dataclass(frozen=True)
class GraphKernel:
    """A dynamics' per-agent decision rule, lifted to aligned arrays.

    ``reduce(own, seen, rng)`` maps the agents' current colors ``(rows,)``
    and their gathered neighbor samples ``(rows, h)`` to the next colors.
    ``consumes_rng`` marks rules whose tie-breaking draws from the stream
    (with data-dependent draw sizes): those reduce replica-by-replica on
    the replica's own stream so batched and sequential runs stay
    bit-identical; rng-free rules reduce the whole flattened batch in one
    elementwise call.
    """

    h: int
    reduce: Callable[[np.ndarray, np.ndarray, np.random.Generator | None], np.ndarray]
    consumes_rng: bool


def _copy_first(own: np.ndarray, seen: np.ndarray, rng) -> np.ndarray:
    return seen[:, 0]


def graph_ineligibility(dynamics: Dynamics) -> str | None:
    """Why this dynamics cannot run on the graph engine (None when it can).

    The engine needs a pure per-agent color rule over (own color, sampled
    neighbor colors); dynamics carrying extra non-color state, or without
    a known per-agent form, are rejected with a human-readable reason.
    """
    if getattr(dynamics, "uses_extra_state", False):
        return f"dynamics {dynamics.name!r} carries extra non-color state"
    if isinstance(
        dynamics,
        (
            ThreeMajority,
            ThreeInputRule,
            HPlurality,
            TwoSampleUniform,
            Voter,
            TwoChoices,
            MedianDynamics,
        ),
    ):
        return None
    return f"dynamics {dynamics.name!r} has no per-agent graph kernel"


def graph_kernel(dynamics: Dynamics, k: int) -> GraphKernel:
    """Build the :class:`GraphKernel` for ``dynamics`` (ValueError if none).

    The kernels reuse the dynamics' own agent-level reductions
    (:meth:`ThreeMajority._reduce_triples`, :meth:`ThreeInputRule.apply`,
    :func:`~repro.core.samplers.row_plurality`), so the graph engine on
    the clique topology is the clique agent engine modulo sampling pools —
    the property the cross-validation tests pin down.
    """
    reason = graph_ineligibility(dynamics)
    if reason is not None:
        raise ValueError(f"graph engine unavailable: {reason}")
    if isinstance(dynamics, ThreeMajority):
        if dynamics.tie_break == "uniform":
            return GraphKernel(
                h=3,
                reduce=lambda own, seen, rng: dynamics._reduce_triples(seen, rng),
                consumes_rng=True,
            )
        # First-sample tie-break collapses to a single select: if the b/c
        # pair agrees it wins; any pair involving a elects a, as does the
        # all-distinct default — elementwise identical to _reduce_triples.
        return GraphKernel(
            h=3,
            reduce=lambda own, seen, rng: np.where(
                seen[:, 1] == seen[:, 2], seen[:, 1], seen[:, 0]
            ),
            consumes_rng=False,
        )
    if isinstance(dynamics, ThreeInputRule):
        return GraphKernel(
            h=3,
            reduce=lambda own, seen, rng: dynamics.apply(
                seen[:, 0], seen[:, 1], seen[:, 2], rng
            ),
            consumes_rng=dynamics.distinct_choice == "uniform",
        )
    if isinstance(dynamics, HPlurality):
        if dynamics.h == 1:
            return GraphKernel(h=1, reduce=_copy_first, consumes_rng=False)
        return GraphKernel(
            h=dynamics.h,
            reduce=lambda own, seen, rng: row_plurality(seen, k, rng),
            consumes_rng=True,
        )
    if isinstance(dynamics, TwoSampleUniform):
        return GraphKernel(
            h=2,
            reduce=lambda own, seen, rng: row_plurality(seen, k, rng),
            consumes_rng=True,
        )
    if isinstance(dynamics, Voter):
        return GraphKernel(h=1, reduce=_copy_first, consumes_rng=False)
    if isinstance(dynamics, TwoChoices):
        return GraphKernel(
            h=2,
            reduce=lambda own, seen, rng: np.where(seen[:, 0] == seen[:, 1], seen[:, 0], own),
            consumes_rng=False,
        )
    # MedianDynamics: own value + two samples; the median of three is the
    # middle order statistic, computed branch-free.
    def _median(own: np.ndarray, seen: np.ndarray, rng) -> np.ndarray:
        a, b, c = own, seen[:, 0], seen[:, 1]
        return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))

    return GraphKernel(h=2, reduce=_median, consumes_rng=False)


def _initial_colors(
    topology: Topology, initial: Configuration, generator: np.random.Generator
) -> np.ndarray:
    from .agentsim import random_coloring  # local: agentsim imports this module

    return random_coloring(topology, initial, generator)


def run_graph_colors(
    colors: np.ndarray,
    k: int,
    kernel: GraphKernel,
    topology: Topology,
    *,
    max_rounds: int,
    stopping: StoppingRule | None,
    record: RecordSpec | None,
    generator: np.random.Generator,
) -> tuple[ProcessResult, np.ndarray]:
    """One sequential graph trajectory from an explicit color vector.

    Shares run_process's exact control flow (t=0 evaluation, stop-label
    vocabulary, record cadence) and consumes the stream in the same
    per-round order as one row of the batched engine — the bit-identity
    contract.  Returns the result plus the final color vector (the
    deprecation shim still exposes per-agent state).
    """
    colors = np.asarray(colors, dtype=np.int64)
    n = topology.n
    if colors.size != n:
        raise ValueError("color vector does not match topology size")
    counts = np.bincount(colors, minlength=k).astype(np.int64)
    plurality_color = int(np.argmax(counts))
    recorder = TraceRecorder(record, n=n, k=k, replicas=1) if record is not None else None
    if recorder is not None:
        recorder.observe(0, counts[None, :])
    rounds = 0
    converged = bool(counts.max() == n)
    stopped_by = _MONO if converged else None
    if stopped_by is None and stopping is not None:
        stopped_by = stopping.fired(counts, n, 0)
    while stopped_by is None and rounds < max_rounds:
        picks = topology.sample_neighbors(kernel.h, generator)
        seen = colors[picks]
        colors = kernel.reduce(colors, seen, generator)
        counts = np.bincount(colors, minlength=k).astype(np.int64)
        rounds += 1
        if recorder is not None:
            recorder.observe(rounds, counts[None, :])
        converged = bool(counts.max() == n)
        if converged:
            stopped_by = _MONO
        elif stopping is not None:
            stopped_by = stopping.fired(counts, n, rounds)
    result = ProcessResult(
        converged=converged,
        winner=int(colors[0]) if converged else None,
        rounds=rounds,
        plurality_color=plurality_color,
        final_counts=counts,
        trace=recorder.finish() if recorder is not None else None,
        stopped_by=stopped_by if stopped_by is not None else BUDGET_EXHAUSTED,
    )
    return result, colors


def run_graph_process(
    dynamics: Dynamics,
    topology: Topology,
    initial: Configuration,
    *,
    max_rounds: int = 1_000_000,
    record: RecordSpec | Mapping | Sequence[str] | str | None = None,
    stopping: StoppingRule | Mapping | None = None,
    rng: int | np.random.Generator | None = None,
) -> ProcessResult:
    """Run one graph trajectory; the general-graph analogue of run_process.

    The initial counts are scattered onto uniformly random agents
    (:func:`~repro.graphs.agentsim.random_coloring`) on the same stream the
    rounds then consume.  Defaults mirror run_process, including the
    default bias/plurality record.
    """
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=DEFAULT_PROCESS_RECORD)
    kernel = graph_kernel(dynamics, initial.k)
    generator = make_rng(rng)
    colors = _initial_colors(topology, initial, generator)
    result, _ = run_graph_colors(
        colors,
        initial.k,
        kernel,
        topology,
        max_rounds=max_rounds,
        stopping=stopping,
        record=record,
        generator=generator,
    )
    return result


def run_graph_ensemble(
    dynamics: Dynamics,
    topology: Topology,
    initial: Configuration,
    replicas: int,
    *,
    max_rounds: int = 1_000_000,
    record: RecordSpec | Mapping | Sequence[str] | str | None = None,
    stopping: StoppingRule | Mapping | None = None,
    rng: int | np.random.Generator | None = None,
    batch: bool = True,
) -> EnsembleResult:
    """Run ``replicas`` independent graph trajectories in lock-step.

    With ``batch=True`` the ``(R, n)`` color matrix advances through one
    batched gather/reduce per round, replicas retiring as they absorb or
    as ``stopping`` fires (labels in ``EnsembleResult.stopped_by``, same
    vocabulary as the counts engines).  With ``batch=False`` each replica
    runs sequentially on its own spawned stream — bit-identical to the
    batched path at equal seed, which the tests assert.
    """
    if replicas <= 0:
        raise ValueError("need at least one replica")
    k = initial.k
    n = topology.n
    if initial.n != n:
        raise ValueError(f"configuration has {initial.n} agents, topology has {n}")
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=None)
    kernel = graph_kernel(dynamics, k)
    plurality_color = int(np.argmax(initial.counts))
    gens = spawn_streams(rng, replicas)

    if not batch:
        outcomes = []
        for gen in gens:
            colors0 = _initial_colors(topology, initial, gen)
            result, _ = run_graph_colors(
                colors0,
                k,
                kernel,
                topology,
                max_rounds=max_rounds,
                stopping=stopping,
                # An explicitly empty record skips the default bookkeeping;
                # the traces are only kept when a record was requested.
                record=record if record is not None else RecordSpec(),
                generator=gen,
            )
            outcomes.append(result)
        return EnsembleResult(
            rounds=np.array([r.rounds for r in outcomes], dtype=np.int64),
            winners=np.array(
                [r.winner if r.winner is not None else -1 for r in outcomes], dtype=np.int64
            ),
            converged=np.array([r.converged for r in outcomes], dtype=bool),
            plurality_color=plurality_color,
            max_rounds=max_rounds,
            final_counts=np.stack([r.final_counts for r in outcomes]),
            stopped_by=np.array([r.stopped_by for r in outcomes], dtype=object),
            trace=stack_traces([r.trace for r in outcomes]) if record is not None else None,
        )

    colors = np.empty((replicas, n), dtype=np.int64)
    for row, gen in enumerate(gens):
        colors[row] = _initial_colors(topology, initial, gen)

    rounds = np.full(replicas, max_rounds, dtype=np.int64)
    winners = np.full(replicas, -1, dtype=np.int64)
    converged = np.zeros(replicas, dtype=bool)
    final_counts = np.tile(initial.counts, (replicas, 1))
    stopped_by = np.full(replicas, None, dtype=object)
    recorder = (
        TraceRecorder(record, n=n, k=k, replicas=replicas) if record is not None else None
    )

    def absorb(live_idx: np.ndarray, counts: np.ndarray, t: int) -> np.ndarray:
        peak = counts.max(axis=1)
        mono = peak == n
        if mono.any():
            idx = live_idx[mono]
            converged[idx] = True
            rounds[idx] = t
            winners[idx] = np.argmax(counts[mono], axis=1)
            final_counts[idx] = counts[mono]
            stopped_by[idx] = _MONO
        return ~mono

    def cull_stopped(
        live_idx: np.ndarray, colors: np.ndarray, counts: np.ndarray, t: int
    ) -> tuple[np.ndarray, np.ndarray]:
        hit = stopping.met_many(counts, n, t)
        if np.any(hit):
            idx = live_idx[hit]
            rounds[idx] = t
            final_counts[idx] = counts[hit]
            stopped_by[idx] = stopping.fired_many(counts[hit], n, t)
            live_idx = live_idx[~hit]
            colors = colors[~hit]
        return live_idx, colors

    live_idx = np.arange(replicas)
    counts = row_counts_dense(colors, k)
    if recorder is not None:
        recorder.observe(0, counts, live_idx)
    alive = absorb(live_idx, counts, 0)
    live_idx = live_idx[alive]
    colors = colors[alive]
    if stopping is not None and live_idx.size:
        live_idx, colors = cull_stopped(live_idx, colors, counts[alive], 0)

    h = kernel.h
    t = 0
    while live_idx.size and t < max_rounds:
        t += 1
        live = live_idx.size
        # Per-replica draws on each replica's own stream (the bit-identity
        # contract); everything after is batched across live replicas.
        # Picks are stored pre-offset into the flattened (live * n,) color
        # matrix so the gather is one ``take`` instead of a fancy triple
        # index (~3x cheaper at this shape).
        picks = np.empty((live, n, h), dtype=np.int64)
        for row, replica in enumerate(live_idx):
            np.add(topology.sample_neighbors(h, gens[replica]), row * n, out=picks[row])
        seen = colors.reshape(-1).take(picks)
        if kernel.consumes_rng:
            new_colors = np.empty_like(colors)
            for row, replica in enumerate(live_idx):
                new_colors[row] = kernel.reduce(colors[row], seen[row], gens[replica])
            colors = new_colors
        else:
            colors = kernel.reduce(
                colors.reshape(-1), seen.reshape(-1, h), None
            ).reshape(live, n)
        counts = row_counts_dense(colors, k)
        # Record before retiring anyone, as in the counts engines.
        if recorder is not None:
            recorder.observe(t, counts, live_idx)
        alive = absorb(live_idx, counts, t)
        if not np.all(alive):
            live_idx = live_idx[alive]
            colors = colors[alive]
            counts = counts[alive]
        if stopping is not None and live_idx.size:
            live_idx, colors = cull_stopped(live_idx, colors, counts, t)

    if live_idx.size:
        final_counts[live_idx] = row_counts_dense(colors, k)
    stopped_by[np.equal(stopped_by, None)] = BUDGET_EXHAUSTED

    return EnsembleResult(
        rounds=rounds,
        winners=winners,
        converged=converged,
        plurality_color=plurality_color,
        max_rounds=max_rounds,
        final_counts=final_counts,
        stopped_by=stopped_by,
        trace=recorder.finish() if recorder is not None else None,
    )

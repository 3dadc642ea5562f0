"""Graph engine: the clique runners' loops on an explicit color vector.

On a general graph the counts are not a Markov chain — *where* each color
sits matters — so the state of a replica is its full ``(n,)`` color vector
and an ensemble is an ``(R, n)`` color matrix.  This module supplies only
the graph-specific half of a run: the per-round advance and the count
reader.  The loops themselves are the clique runners' own
(:func:`~repro.core.process._run_trajectory` and
:func:`~repro.core.process._run_ensemble_batched`), so t = 0 evaluation,
record-before-retire ordering, absorption, stopping and the ``stopped_by``
vocabulary are shared code, and a graph run returns a standard
:class:`~repro.core.process.EnsembleResult` that serializes through the
serve cache unchanged.

* **one vectorized CSR gather per round** — per-replica neighbor draws are
  cheap bounded-integer calls on each replica's own stream, but the color
  gather, the per-agent reduction (for rules that consume no tie-break
  randomness) and the per-replica histograms run batched across the live
  replicas;
* **per-replica randomness** — every replica consumes its spawned stream
  in exactly the order the sequential single-replica run does (coloring,
  then per round: neighbor picks, then any tie-break draws), so
  ``batch=True`` and ``batch=False`` are **bit-identical** at equal seed.

A dynamics participates through a :class:`GraphKernel` — its per-agent
decision rule ``f(own, seen) -> color`` lifted to aligned arrays.  Rules
whose clique engines already are per-agent laws (3-majority, the 3-input
family, h-plurality, voter, two-choices, median, 2-sample-uniform) map
directly; dynamics carrying non-color state (undecided-state) have no
graph kernel and are rejected with a reason (:func:`graph_ineligibility`).
:func:`run_graph_process` also starts from a hand-placed ``(n,)`` color
vector, for initial states a spec's counts cannot express.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.config import Configuration
from ..core.dynamics import Dynamics
from ..core.majority import HPlurality, ThreeMajority, TwoSampleUniform
from ..core.median import MedianDynamics
from ..core.metrics import RecordSpec, as_record_spec
from ..core.process import (
    DEFAULT_PROCESS_RECORD,
    EnsembleResult,
    ProcessResult,
    _resolve_stopping,
    _run_ensemble_batched,
    _run_trajectory,
    _stack_results,
)
from ..core.rng import make_rng, spawn_streams
from ..core.samplers import row_counts_dense, row_plurality
from ..core.stopping import StoppingRule
from ..core.threeinput import ThreeInputRule
from ..core.voter import TwoChoices, Voter
from .topology import Topology

__all__ = [
    "GraphKernel",
    "graph_kernel",
    "graph_ineligibility",
    "random_coloring",
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


def random_coloring(
    topology: Topology, configuration: Configuration, rng: np.random.Generator
) -> np.ndarray:
    """Assign the configuration's counts to uniformly random agents."""
    if configuration.n != topology.n:
        raise ValueError(f"configuration has {configuration.n} agents, topology has {topology.n}")
    colors = np.repeat(np.arange(configuration.k, dtype=np.int64), configuration.counts)
    rng.shuffle(colors)
    return colors


def _color_vector(colors: np.ndarray, n: int) -> np.ndarray:
    """Validate a hand-placed ``(n,)`` color vector; returns an int64 copy."""
    colors = np.asarray(colors)
    if colors.shape != (n,):
        raise ValueError(f"color vector must have shape ({n},), got {colors.shape}")
    if not np.issubdtype(colors.dtype, np.integer) or colors.min() < 0:
        raise ValueError("color vector must hold non-negative integer colors")
    return colors.astype(np.int64)


def run_graph_process(
    dynamics: Dynamics,
    topology: Topology,
    initial: Configuration | np.ndarray,
    *,
    max_rounds: int = 1_000_000,
    record: RecordSpec | Mapping | Sequence[str] | str | None = None,
    stopping: StoppingRule | Mapping | None = None,
    rng: int | np.random.Generator | None = None,
) -> ProcessResult:
    """Run one graph trajectory; the general-graph analogue of run_process.

    ``initial`` is either a :class:`Configuration`, whose counts are
    scattered onto uniformly random agents (:func:`random_coloring`) on
    the same stream the rounds then consume, or a hand-placed ``(n,)``
    vector of non-negative integer colors (``k`` is its largest color
    plus one), used as given.  Defaults mirror run_process, including the
    default bias/plurality record.
    """
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=DEFAULT_PROCESS_RECORD)
    generator = make_rng(rng)
    if isinstance(initial, Configuration):
        colors = random_coloring(topology, initial, generator)
        k = initial.k
    else:
        colors = _color_vector(initial, topology.n)
        k = int(colors.max()) + 1
    return _run_graph_trajectory(
        graph_kernel(dynamics, k),
        topology,
        colors,
        k,
        generator,
        max_rounds=max_rounds,
        record=record,
        stopping=stopping,
    )


def _run_graph_trajectory(
    kernel: GraphKernel,
    topology: Topology,
    colors: np.ndarray,
    k: int,
    generator: np.random.Generator,
    *,
    max_rounds: int,
    record: RecordSpec,
    stopping: StoppingRule | None,
) -> ProcessResult:
    """One graph trajectory on the sequential loop, from a color vector.

    Per round: the agents' neighbor picks, then the kernel's tie-break
    draws, all on ``generator`` — the order each row of the batched
    engine consumes its own stream in.
    """

    def advance(colors: np.ndarray) -> np.ndarray:
        picks = topology.sample_neighbors(kernel.h, generator)
        return kernel.reduce(colors, colors[picks], generator)

    return _run_trajectory(
        advance,
        lambda colors: np.bincount(colors, minlength=k),
        colors,
        n=topology.n,
        k=k,
        max_rounds=max_rounds,
        record=record,
        stopping=stopping,
    )


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

    With ``batch=True`` the ``(R, n)`` color matrix advances on the shared
    batched loop (:func:`~repro.core.process._run_ensemble_batched`)
    through one gather/reduce per round, replicas retiring as they absorb
    or as ``stopping`` fires (labels in ``EnsembleResult.stopped_by``,
    same vocabulary as the counts engines).  With ``batch=False`` each
    replica runs on the sequential loop on its own spawned stream —
    bit-identical to the batched path at equal seed, which the tests
    assert.
    """
    if replicas <= 0:
        raise ValueError("need at least one replica")
    k = initial.k
    n = topology.n
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=None)
    kernel = graph_kernel(dynamics, k)
    gens = spawn_streams(rng, replicas)

    if not batch:
        results = [
            _run_graph_trajectory(
                kernel,
                topology,
                random_coloring(topology, initial, gen),
                k,
                gen,
                max_rounds=max_rounds,
                # An explicitly empty record skips the default bookkeeping;
                # the traces are only kept when a record was requested.
                record=record if record is not None else RecordSpec(),
                stopping=stopping,
            )
            for gen in gens
        ]
        return _stack_results(results, max_rounds=max_rounds, keep_trace=record is not None)

    h = kernel.h

    def advance(colors: np.ndarray, live_idx: np.ndarray) -> np.ndarray:
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
        if not kernel.consumes_rng:
            return kernel.reduce(colors.reshape(-1), seen.reshape(-1, h), None).reshape(live, n)
        new_colors = np.empty_like(colors)
        for row, replica in enumerate(live_idx):
            new_colors[row] = kernel.reduce(colors[row], seen[row], gens[replica])
        return new_colors

    return _run_ensemble_batched(
        advance,
        lambda colors: row_counts_dense(colors, k),
        np.stack([random_coloring(topology, initial, gen) for gen in gens]),
        n=n,
        k=k,
        max_rounds=max_rounds,
        record=record,
        stopping=stopping,
    )

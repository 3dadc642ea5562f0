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

A dynamics participates through the per-agent rule it declares,
:meth:`~repro.core.dynamics.Dynamics.agent_rule` — a
:class:`~repro.core.dynamics.GraphKernel`, its decision
``f(own, seen) -> color`` lifted to aligned arrays, the same rule the
clique's agent engine runs.  This module looks the rule up and never
asks what type a dynamics is: a dynamics without a rule, or carrying
non-color state (undecided-state), is rejected with a reason
(:func:`graph_ineligibility`).  :func:`run_graph_process` also starts
from a hand-placed ``(n,)`` color vector, for initial states a spec's
counts cannot express.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..core.config import Configuration
from ..core.dynamics import Dynamics, GraphKernel
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
from ..core.samplers import row_counts_dense
from ..core.stopping import StoppingRule
from .topology import Topology

__all__ = [
    "graph_kernel",
    "graph_ineligibility",
    "random_coloring",
    "run_graph_process",
    "run_graph_ensemble",
]


def graph_ineligibility(dynamics: Dynamics, k: int = 2) -> str | None:
    """Why this dynamics cannot run on the graph engine (None when it can).

    The engine needs a pure per-agent color rule over (own color, sampled
    neighbor colors): the dynamics' declared
    :meth:`~repro.core.dynamics.Dynamics.agent_rule` at ``k`` colors.
    Whether a built-in dynamics has a rule does not depend on ``k``, so
    the default answers for every ``k``.
    """
    if dynamics.uses_extra_state:
        return f"dynamics {dynamics.name!r} carries extra non-color state"
    if dynamics.agent_rule(k) is None:
        return f"dynamics {dynamics.name!r} has no per-agent graph kernel"
    return None


def graph_kernel(dynamics: Dynamics, k: int) -> GraphKernel:
    """The dynamics' declared per-agent rule at ``k`` colors (ValueError if none).

    It is the rule the clique's agent engine runs, so the graph engine on
    the clique topology is the clique agent engine modulo sampling pools —
    the property the cross-validation tests pin down.
    """
    reason = graph_ineligibility(dynamics, k)
    if reason is not None:
        raise ValueError(f"graph engine unavailable: {reason}")
    return dynamics.agent_rule(k)


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

"""Process runner: trajectories, stopping rules and replica ensembles.

The plurality-consensus *process* couples a :class:`~repro.core.dynamics.Dynamics`
with an initial configuration and (optionally) an F-bounded adversary, using
exactly the round split of Corollary 4's proof::

    C(t)  --dynamics-->  H(t+1)  --adversary-->  C(t+1)

:func:`run_process` produces a single trajectory with full bookkeeping;
:func:`run_ensemble` advances many independent replicas in lock-step through
the batched step kernels — the workhorse of every experiment, giving
empirical success probabilities and convergence-time distributions.

The round contract — evaluate t = 0, then per round advance, record,
absorb at the monochromatic state and check the stopping rule — is
written once per kind of loop: :func:`_run_trajectory` (sequential) and
:func:`_run_ensemble_batched` (replica-batched).  Both loops serve both
engines.  They take the per-round advance and a reader of the color
counts: the clique passes ``step``/``step_many`` plus the adversary and
a column view of its count state, the graph engine
(:mod:`repro.graphs.ensemble`) passes its CSR gather plus
``GraphKernel.reduce`` and per-replica histograms of its color vectors.
So the exact-chain and chi-square checks on the clique exercise the same
loops graph scenarios run.

``run_ensemble`` steps its batch in one of two *layouts* (the
``engine=`` keyword): ``"dense"`` keeps the full ``(R, k)`` count matrix;
``"sparse"`` tracks the ensemble's union live support and steps the
``(R, s)`` compacted columns (see :mod:`repro.core.support`),
re-compacting with hysteresis as colors die — O(support) per round
instead of O(k), the difference between impractical and seconds in the
paper's large-``k`` regimes (``k = n^ε``).  ``"auto"`` upgrades to sparse
at large ``k`` whenever the dynamics, adversary and stopping rule are all
sparse-eligible.  Sparse runs are exact (support-closed laws restricted
to the support are the dense laws) but consume randomness differently,
so they are *statistically*, not bit-wise, equivalent to dense at equal
seed — hence the :data:`ENGINE_SCHEMA_VERSION` bump that keys them.

Observation is declarative (see :mod:`repro.core.metrics`): both runners
take ``record=`` — metric names, a :class:`~repro.core.metrics.RecordSpec`
or its serialized dict — and emit a columnar
:class:`~repro.core.metrics.TraceSet` (``result.trace``), computed
vectorized across replicas in the batched path.  Metrics never consume
randomness, so recording cannot perturb a trajectory.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .adversary import Adversary
from .config import Configuration
from .dynamics import Dynamics
from .metrics import (
    PluralityCountMetric,
    RecordSpec,
    TraceRecorder,
    TraceSet,
    as_record_spec,
    stack_traces,
)
from .rng import make_rng, spawn_streams
from .support import scatter_counts
from .stopping import BUDGET_EXHAUSTED, MetricThresholdStop, StoppingRule, stopping_from_dict

__all__ = [
    "ENGINE_SCHEMA_VERSION",
    "ENSEMBLE_ENGINES",
    "ProcessResult",
    "EnsembleResult",
    "run_process",
    "run_ensemble",
    "sparse_ineligibility",
]

#: Version of the engine/result contract.  Bump whenever a change makes the
#: runners produce *different results at equal seed* (RNG stream discipline,
#: stepping order, stopping semantics, adversary strategies): cached
#: :class:`EnsembleResult` entries are keyed by this version, so stale
#: results from an older engine are invalidated instead of served.
#: History: 1 = PR 2 contract; 2 = delimited ``derive_seed`` hashing,
#: t=0 stopping-rule evaluation, supported-only ``BalancingAdversary``.
#: (PR 4's metric recording left the contract at 2: metrics never consume
#: randomness, so counts/rounds/winners are unchanged at equal seed.)
#: 3 = the sparse ensemble layout: ``engine="sparse"`` (and the ``"auto"``
#: upgrade at large k) draws its multinomials over the support-compacted
#: columns, consuming randomness differently from dense at equal seed, and
#: the scenario ``engine`` field joined the content address; additionally
#: the agent-level engines batch their per-agent draws across replicas
#: (``samplers.batched_agent_step``), which reorders *their* randomness
#: consumption even on the dense layout (counts-engine dense runs are
#: unchanged).  Cached entries from the two-engine era are invalidated
#: rather than served.
#: 4 = exact O(k) samplers for two-choices and undecided-state: a replica
#: batch draws every row's binomials in one call, then every row's
#: multinomial in one call (two-choices: movers per class, then where
#: they land; undecided-state: colored survivors, then undecided pulls),
#: so both consume randomness differently at equal seed.  Every other
#: dynamics, layout and the graph engine draw exactly as under 3.
#: 5 = one exact h-plurality law at every h >= 4 (a generating function,
#: ``majority.plurality_law``) replaces the composition tables, and
#: ``"auto"`` steps it on the counts engine at every (h, k): h >= 4
#: counts draws can move by ulp-level law differences, and the shapes that
#: ran agent-level (h > 5, or large tables) now draw multinomials.  It
#: also retires schema-4 entries of ``HPlurality(1, engine="agent")``,
#: whose draws moved under 4 when a tie-break jitter that cannot change
#: its result was dropped.  h <= 3 and every other dynamics draw as under 4.
ENGINE_SCHEMA_VERSION = 5

#: Recognised values of :func:`run_ensemble`'s ``engine=`` keyword (the
#: *ensemble layout*, orthogonal to each dynamics' own counts/agent law
#: engine — see the matrix in :mod:`repro.core.dynamics`).
ENSEMBLE_ENGINES = ("auto", "dense", "sparse")

#: ``engine="auto"`` upgrades to the sparse layout at k >= this.  Below
#: it the dense per-round cost is already small and auto keeps the dense
#: layout (bit-stable with previous releases for counts-engine dynamics;
#: agent-level engines reordered their draws in v3 regardless of layout,
#: two-choices and undecided-state in v4);
#: every existing workload in the repo runs at k <= 100, so the threshold
#: doubles as a compatibility line.
_SPARSE_AUTO_MIN_K = 128

#: Re-compact the sparse working set only when the union support has
#: shrunk to this fraction of the current compacted width — O(log k)
#: total copies over a run instead of one per extinction.
_SPARSE_HYSTERESIS = 0.5

#: ``stopped_by`` label for replicas absorbed in a monochromatic state.
_MONO = "monochromatic"

#: What :func:`run_process` records when no ``record=`` is given: the
#: per-round bias and plurality count.
DEFAULT_PROCESS_RECORD = RecordSpec(metrics=("bias", "plurality-count"), every=1)


def _resolve_stopping(stopping: StoppingRule | Mapping | None) -> StoppingRule | None:
    """Normalise the ``stopping`` argument (a rule, its dict form, or None)."""
    if isinstance(stopping, Mapping):
        stopping = stopping_from_dict(stopping)
    if stopping is not None and not isinstance(stopping, StoppingRule):
        raise TypeError(f"stopping must be a StoppingRule or dict, got {stopping!r}")
    return stopping


@dataclass
class ProcessResult:
    """Outcome of a single trajectory.

    Attributes
    ----------
    converged:
        True iff a monochromatic configuration was reached within the
        round budget.
    winner:
        The consensus color (None when not converged).
    rounds:
        Rounds executed until absorption (or the budget when not
        converged).
    plurality_color:
        Plurality color of the *initial* configuration — the process
        "succeeds" in the paper's sense iff ``winner == plurality_color``.
    final_counts:
        Configuration at the last executed round (color slots only; any
        extra dynamics state is dropped).
    trace:
        Columnar :class:`~repro.core.metrics.TraceSet` (one replica) with
        the recorded metrics; by default ``bias`` and ``plurality-count``
        every round.
    stopped_by:
        Why the run ended: ``"monochromatic"`` (absorbed), the name of the
        stopping rule that fired, or ``"max-rounds"`` when ``max_rounds``
        expired with neither.
    """

    converged: bool
    winner: int | None
    rounds: int
    plurality_color: int
    final_counts: np.ndarray
    trace: TraceSet | None = None
    stopped_by: str | None = None

    @property
    def plurality_won(self) -> bool:
        """True iff the process converged to the initial plurality color."""
        return self.converged and self.winner == self.plurality_color


@dataclass
class EnsembleResult:
    """Outcome of ``replicas`` independent trajectories.

    All arrays have length ``replicas``; ``winners[i] == -1`` when replica
    ``i`` did not converge within the budget.
    """

    rounds: np.ndarray
    winners: np.ndarray
    converged: np.ndarray
    plurality_color: int
    max_rounds: int
    #: Per-replica final configurations, shape ``(replicas, k)``.
    final_counts: np.ndarray = field(repr=False)
    #: Per-replica stop labels (object array of str, same vocabulary as
    #: ``ProcessResult.stopped_by``).
    stopped_by: np.ndarray = field(repr=False)
    #: Columnar metric traces across all replicas (see
    #: :class:`~repro.core.metrics.TraceSet`); None unless ``record=`` was
    #: passed — the un-recorded hot path allocates nothing.
    trace: TraceSet | None = field(repr=False, default=None)

    @property
    def replicas(self) -> int:
        return int(self.rounds.size)

    def stop_reasons(self) -> dict[str, int]:
        """Histogram of ``stopped_by`` labels over the replicas."""
        labels, counts = np.unique(self.stopped_by.astype(str), return_counts=True)
        return {str(label): int(count) for label, count in zip(labels, counts)}

    @property
    def plurality_wins(self) -> np.ndarray:
        return self.converged & (self.winners == self.plurality_color)

    @property
    def plurality_win_rate(self) -> float:
        return float(self.plurality_wins.mean()) if self.replicas else float("nan")

    @property
    def convergence_rate(self) -> float:
        return float(self.converged.mean()) if self.replicas else float("nan")

    def rounds_summary(self) -> dict[str, float]:
        """Mean/median/quantile summary over *converged* replicas."""
        conv = self.rounds[self.converged]
        if conv.size == 0:
            return {"mean": float("nan"), "median": float("nan"), "p90": float("nan"), "max": float("nan")}
        return {
            "mean": float(conv.mean()),
            "median": float(np.median(conv)),
            "p90": float(np.quantile(conv, 0.9)),
            "max": float(conv.max()),
        }


def _prepare_state(dynamics: Dynamics, initial: Configuration | np.ndarray) -> tuple[np.ndarray, int]:
    """Build the dynamics' state vector and remember the color-slot count."""
    counts = initial.counts if isinstance(initial, Configuration) else np.asarray(initial, dtype=np.int64)
    k = counts.size
    if dynamics.uses_extra_state:
        extend = getattr(dynamics, "extend_counts", None)
        if extend is None:
            raise TypeError(f"{dynamics.name} uses extra state but has no extend_counts()")
        state = extend(counts)
    else:
        state = counts.astype(np.int64, copy=True)
    return state, k


def run_process(
    dynamics: Dynamics,
    initial: Configuration | np.ndarray,
    *,
    max_rounds: int = 1_000_000,
    adversary: Adversary | None = None,
    record: RecordSpec | Mapping | Sequence[str] | str | None = None,
    stopping: StoppingRule | Mapping | None = None,
    rng: int | np.random.Generator | None = None,
) -> ProcessResult:
    """Run one trajectory until consensus (or a stopping rule) is reached.

    Parameters
    ----------
    record:
        Which metrics to observe per round (names, a
        :class:`~repro.core.metrics.RecordSpec`, or its dict form).  The
        default records ``bias`` and ``plurality-count`` every round.  The
        columnar result lands in ``ProcessResult.trace``.
    stopping:
        Optional early-stop rule (a :class:`~repro.core.stopping.StoppingRule`
        or its serialized dict), checked on the color counts after every
        round; monochromatic absorption always ends the run regardless.
        The rule that fired is recorded in ``ProcessResult.stopped_by``.
    """
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=DEFAULT_PROCESS_RECORD)
    generator = make_rng(rng)
    state, k = _prepare_state(dynamics, initial)

    def advance(state: np.ndarray) -> np.ndarray:
        state = dynamics.step(state, generator)
        if adversary is None:
            return state
        if dynamics.uses_extra_state:
            return np.concatenate([adversary.corrupt(state[:k], generator), state[k:]])
        return adversary.corrupt(state, generator)

    return _run_trajectory(
        advance,
        lambda state: state[:k],
        state,
        n=int(state.sum()),
        k=k,
        max_rounds=max_rounds,
        record=record,
        stopping=stopping,
    )


def _run_trajectory(
    advance: Callable[[np.ndarray], np.ndarray],
    colored: Callable[[np.ndarray], np.ndarray],
    state: np.ndarray,
    *,
    n: int,
    k: int,
    max_rounds: int,
    record: RecordSpec,
    stopping: StoppingRule | None,
) -> ProcessResult:
    """The sequential round loop, shared by the clique and graph runners.

    ``advance(state)`` performs one round C(t) -> C(t+1): the clique steps
    the counts and lets the adversary corrupt them, the graph engine
    gathers each agent's neighbor samples and applies the per-agent rule.
    ``colored(state)`` reads the ``(k,)`` color counts of a state.  Each
    round is evaluated in one order, t = 0 included: record, absorb at the
    monochromatic state, then check the stopping rule.  This loop is the
    reference the batched loop (:func:`_run_ensemble_batched`) is tested
    against, which is why it stays a loop of its own.
    """
    if n == 0:
        raise ValueError("cannot run a process with zero agents")
    counts = colored(state)
    plurality_color = int(np.argmax(counts))
    recorder = TraceRecorder(record, n=n, k=k, replicas=1)
    rounds = 0
    while True:
        recorder.observe(rounds, counts[None, :])
        converged = bool(counts.max() == n)
        stopped_by = _MONO if converged else None
        if stopped_by is None and stopping is not None:
            # Rules see the initial configuration too: one already met at
            # t = 0 ends the run with rounds = 0.
            stopped_by = stopping.fired(counts, n, rounds)
        if stopped_by is not None or rounds >= max_rounds:
            break
        state = advance(state)
        counts = colored(state)
        rounds += 1
    return ProcessResult(
        converged=converged,
        winner=int(np.argmax(counts)) if converged else None,
        rounds=rounds,
        plurality_color=plurality_color,
        final_counts=counts.copy(),
        trace=recorder.finish(),
        stopped_by=stopped_by if stopped_by is not None else BUDGET_EXHAUSTED,
    )


def _stack_results(
    results: Sequence[ProcessResult], *, max_rounds: int, keep_trace: bool
) -> EnsembleResult:
    """Assemble sequential trajectories into one :class:`EnsembleResult`.

    The ``batch=False`` paths of both ensemble runners end here.  Traces
    are stacked only when the caller asked for a record.
    """
    return EnsembleResult(
        rounds=np.array([r.rounds for r in results], dtype=np.int64),
        winners=np.array([-1 if r.winner is None else r.winner for r in results], dtype=np.int64),
        converged=np.array([r.converged for r in results], dtype=bool),
        plurality_color=results[0].plurality_color,
        max_rounds=max_rounds,
        final_counts=np.stack([r.final_counts for r in results]),
        stopped_by=np.array([r.stopped_by for r in results], dtype=object),
        trace=stack_traces([r.trace for r in results]) if keep_trace else None,
    )


def sparse_ineligibility(
    dynamics: Dynamics,
    adversary: Adversary | None = None,
    stopping: StoppingRule | None = None,
) -> str | None:
    """Why this scenario cannot run on the sparse ensemble layout.

    Returns ``None`` when it can, else a human-readable reason: the
    dynamics must be support-closed and carry no extra non-color state,
    the adversary must be support-preserving (never feeds extinct colors),
    and the stopping rule must evaluate identically on support-compacted
    counts.  ``engine="auto"`` consults this to fall back to dense; an
    explicit ``engine="sparse"`` raises with the reason instead.
    """
    if not getattr(dynamics, "support_closed", False):
        return f"dynamics {dynamics.name!r} is not support-closed"
    if dynamics.uses_extra_state:
        return f"dynamics {dynamics.name!r} carries extra non-color state"
    if adversary is not None and not getattr(adversary, "support_preserving", False):
        return f"adversary {type(adversary).__name__} is not support-preserving"
    if stopping is not None and not getattr(stopping, "sparse_invariant", False):
        return f"stopping rule {stopping.rule!r} is not sparse-invariant"
    return None


def run_ensemble(
    dynamics: Dynamics,
    initial: Configuration | np.ndarray,
    replicas: int,
    *,
    max_rounds: int = 1_000_000,
    adversary: Adversary | None = None,
    record: RecordSpec | Mapping | Sequence[str] | str | None = None,
    stopping: StoppingRule | Mapping | None = None,
    rng: int | np.random.Generator | None = None,
    batch: bool = True,
    engine: str = "auto",
) -> EnsembleResult:
    """Run ``replicas`` i.i.d. trajectories and gather their outcomes.

    With ``batch=True`` (default) all live replicas advance together
    through :meth:`Dynamics.step_many`; replicas drop out of the batch as
    they absorb — or as the optional ``stopping`` rule fires for them,
    with the firing rule recorded per replica in
    ``EnsembleResult.stopped_by``.  With ``batch=False`` each replica runs
    on its own spawned stream — bit-identical to independent sequential
    runs, used in tests to validate the batched path.  A passed
    :class:`numpy.random.Generator` spawns the per-replica streams from
    its own seed sequence, so the unbatched path is reproducible for every
    accepted ``rng`` type.

    ``engine`` selects the batched layout: ``"dense"`` steps the full
    ``(R, k)`` matrix (the historical layout; bit-identical to previous
    releases at equal seed for counts-engine dynamics — agent-level
    engines batch their draws differently since schema version 3,
    two-choices and undecided-state since schema version 4, and
    h-plurality at h >= 4 since schema version 5);
    ``"sparse"`` steps the union-live-support compacted ``(R, s)`` columns
    — O(support) per round, the large-``k`` mode — and requires a
    sparse-eligible scenario (see :func:`sparse_ineligibility`);
    ``"auto"`` upgrades to sparse when ``k >= 128`` and the scenario is
    eligible.  Sparse draws consume randomness differently, so sparse and
    dense agree in distribution, not bit-wise, at equal seed.  The
    unbatched path has a single (dense) layout: ``engine="sparse"`` with
    ``batch=False`` is an error.

    With ``record=``, metric values are computed *vectorized across the
    live replicas* each recorded round and returned as a columnar
    :class:`~repro.core.metrics.TraceSet` in ``EnsembleResult.trace``
    (replicas that retire early keep zero padding past their stop round;
    ``trace.n_recorded`` marks each replica's valid prefix).  Without
    ``record=`` no trace machinery runs at all.
    """
    if replicas <= 0:
        raise ValueError("need at least one replica")
    if engine not in ENSEMBLE_ENGINES:
        raise ValueError(f"unknown ensemble engine {engine!r}; expected one of {ENSEMBLE_ENGINES}")
    stopping = _resolve_stopping(stopping)
    record = as_record_spec(record, default=None)

    if not batch:
        if engine == "sparse":
            raise ValueError("engine='sparse' needs the batched path (batch=True)")
        results = [
            run_process(
                dynamics,
                initial,
                max_rounds=max_rounds,
                adversary=adversary,
                # An explicitly empty record skips run_process's default
                # bias/plurality bookkeeping: the per-replica traces are
                # discarded when no record was requested.
                record=record if record is not None else RecordSpec(),
                stopping=stopping,
                rng=stream,
            )
            for stream in spawn_streams(rng, replicas)
        ]
        return _stack_results(results, max_rounds=max_rounds, keep_trace=record is not None)

    state0, k = _prepare_state(dynamics, initial)
    generator = make_rng(rng)
    reason = sparse_ineligibility(dynamics, adversary, stopping)
    support = None
    if engine == "sparse" or (engine == "auto" and k >= _SPARSE_AUTO_MIN_K and reason is None):
        if reason is not None:  # only reachable for an explicit "sparse"
            raise ValueError(f"engine='sparse' unavailable: {reason}")
        support = np.flatnonzero(state0[:k]).astype(np.int64)
    sparse = support is not None

    def advance(states: np.ndarray, live_idx: np.ndarray) -> np.ndarray:
        states = dynamics.step_many(states, generator)
        if adversary is not None:
            if sparse:
                states = adversary.corrupt_many(states, generator)
            else:
                states[:, :k] = adversary.corrupt_many(states[:, :k], generator)
        return states

    return _run_ensemble_batched(
        advance,
        # Compacted batches are all colors; dense batches may carry extra
        # state slots past ``k``.
        (lambda states: states) if sparse else (lambda states: states[:, :k]),
        np.tile(state0[support] if sparse else state0, (replicas, 1)),
        n=int(state0.sum()),
        k=k,
        max_rounds=max_rounds,
        record=record,
        stopping=stopping,
        support=support,
    )


def _run_ensemble_batched(
    advance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    colored: Callable[[np.ndarray], np.ndarray],
    states: np.ndarray,
    *,
    n: int,
    k: int,
    max_rounds: int,
    record: RecordSpec | None,
    stopping: StoppingRule | None,
    support: np.ndarray | None = None,
) -> EnsembleResult:
    """The batched replica loop, shared by the clique layouts and graphs.

    ``states`` holds one row per replica.  ``advance(states, live_idx)``
    performs one round for the live rows (``live_idx`` are their replica
    indices, which the graph engine uses to pick each row's own stream);
    ``colored(states)`` reads their color counts.  The clique runner
    passes :meth:`Dynamics.step_many` plus the adversary and a column
    view; the graph engine (:mod:`repro.graphs.ensemble`) passes its CSR
    gather plus :attr:`GraphKernel.reduce` and per-row histograms.

    With ``support is None`` the counts are dense ``(L, k)``.  With
    ``support`` given (the sorted union-live-support map of the sparse
    clique layout), the working set is the compacted ``(L, s)`` columns:
    the dynamics' law sees width ``s`` (so e.g.
    :class:`~repro.core.majority.HPlurality`'s law costs O(s), not O(k)),
    metrics record through the
    compaction-aware :meth:`~repro.core.metrics.TraceRecorder.observe`,
    and winners / final counts scatter back through ``support`` only at
    retirement boundaries.  When the union support has shrunk past the
    hysteresis fraction the working set is re-compacted — the dead
    columns' cost disappears for the rest of the run.  Support is
    monotone non-increasing (enforced by :func:`sparse_ineligibility`),
    so ``scatter_counts`` is lossless and every layout reports identical
    dense-``k`` result arrays.

    Each round follows :func:`_run_trajectory`'s order, t = 0 included:
    record, absorb, then cull the replicas whose stopping rule fires.
    """
    if n == 0:
        raise ValueError("cannot run a process with zero agents")
    replicas = states.shape[0]
    sparse = support is not None
    rounds = np.full(replicas, max_rounds, dtype=np.int64)
    winners = np.full(replicas, -1, dtype=np.int64)
    converged = np.zeros(replicas, dtype=bool)
    final_counts = np.zeros((replicas, k), dtype=np.int64)
    stopped_by = np.full(replicas, None, dtype=object)
    recorder = (
        TraceRecorder(record, n=n, k=k, replicas=replicas) if record is not None else None
    )

    def to_dense(rows: np.ndarray) -> np.ndarray:
        return scatter_counts(rows, support, k) if sparse else rows

    counts = colored(states)
    plurality_color = int(np.argmax(to_dense(counts[:1])))
    # Reused per-round scratch: the absorption scan writes its row maxima
    # and boolean verdicts into leading views of these instead of
    # allocating fresh arrays every round.
    scratch_max = np.empty(replicas, dtype=counts.dtype)
    scratch_mask = np.empty(replicas, dtype=bool)
    # ``monochromatic`` and ``plurality-fraction`` threshold the plurality
    # count, which is exactly the absorption scan's row maximum: those
    # rules fire from it instead of recomputing it.
    peak_threshold = (
        stopping.threshold_for(n)
        if isinstance(stopping, MetricThresholdStop)
        and isinstance(stopping.metric, PluralityCountMetric)
        else None
    )

    def absorb(
        live_idx: np.ndarray, counts: np.ndarray, peak: np.ndarray, t: int
    ) -> np.ndarray | None:
        """Retire the replicas absorbed at round ``t`` (``peak``: row maxima).

        Returns the mask of rows still running, or None when none absorbed.
        """
        mono = np.equal(peak, n, out=scratch_mask[: peak.size])
        if not mono.any():
            return None
        idx = live_idx[mono]
        converged[idx] = True
        rounds[idx] = t
        top = np.argmax(counts[mono], axis=1)
        winners[idx] = support[top] if sparse else top
        final_counts[idx] = to_dense(counts[mono])
        stopped_by[idx] = _MONO
        return ~mono

    def cull_stopped(
        live_idx: np.ndarray, counts: np.ndarray, peak: np.ndarray, t: int
    ) -> np.ndarray | None:
        """Retire replicas whose stopping rule fires at round ``t``.

        Returns the mask of rows still running, or None when none fired.
        The cheap boolean test runs every round; the object-array label
        pass (``fired_many``) runs only on the rows that actually fired.
        """
        if peak_threshold is None:
            hit = stopping.met_many(counts, n, t)
        else:
            hit = peak >= peak_threshold
        if not np.any(hit):
            return None
        idx = live_idx[hit]
        rounds[idx] = t
        final_counts[idx] = to_dense(counts[hit])
        if peak_threshold is None:
            stopped_by[idx] = stopping.fired_many(counts[hit], n, t)
        else:
            stopped_by[idx] = stopping.rule
        return ~hit

    live_idx = np.arange(replicas)
    t = 0
    while True:
        # Record before retiring anyone: a replica absorbing at round t has
        # its round-t configuration in the trace.
        if recorder is not None:
            recorder.observe(t, counts, live_idx, support=support)
        peak = np.max(counts, axis=1, out=scratch_max[: counts.shape[0]])
        alive = absorb(live_idx, counts, peak, t)
        if alive is not None:
            live_idx, states, counts = live_idx[alive], states[alive], counts[alive]
            peak = peak[alive]
        if stopping is not None and live_idx.size:
            alive = cull_stopped(live_idx, counts, peak, t)
            if alive is not None:
                live_idx, states, counts = live_idx[alive], states[alive], counts[alive]
        if not live_idx.size or t >= max_rounds:
            break
        if sparse and support.size > 1:
            # Hysteresis re-compaction: only pay the column copy once the
            # union support has shrunk enough to matter.
            cols = states.any(axis=0)
            if np.count_nonzero(cols) <= support.size * _SPARSE_HYSTERESIS:
                support = support[cols]
                states = np.ascontiguousarray(states[:, cols])
        t += 1
        states = advance(states, live_idx)
        counts = colored(states)

    if live_idx.size:
        final_counts[live_idx] = to_dense(counts)
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

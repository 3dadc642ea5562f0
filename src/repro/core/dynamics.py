"""Abstract interface shared by every dynamics in the library.

A *dynamics* (paper, Definition 1) is a synchronous anonymous update rule:
each round, every agent resamples its color from a law that depends only on
the current configuration.  On the clique this makes the count vector a
Markov chain, and each dynamics is fully described by its per-agent
**color law** and/or a **step kernel** that samples the next configuration.

Implementations provide at least one of:

* :meth:`Dynamics.color_law` — the exact per-agent distribution of the next
  color given the configuration (when a closed form exists; enables the
  exact multinomial engine and the exact Markov-chain analysis).  A law
  the counts engine samples broadcasts over leading axes: it is evaluated
  once on the whole ``(R, k)`` batch;

* :meth:`Dynamics.step` — one sampled round.  :class:`CountsDynamics`
  defines it as the one-row case of :meth:`~CountsDynamics.step_many`,
  whose default draws ``Multinomial(n, color_law(c))``, *exact* on the
  clique; a dynamics that defines only ``step`` still runs, through the
  row-loop :meth:`Dynamics.step_many`.

Dynamics that carry extra per-agent state beyond the color (the
undecided-state protocol) extend the state vector with additional slots and
document the convention; see :mod:`repro.core.undecided`.  They still step
through :class:`CountsDynamics`, with a sampler of their own.

Registry names
--------------
Every concrete dynamics is registered in
:data:`repro.core.registry.DYNAMICS` under a string key — ``"3-majority"``,
``"h-plurality"``, ``"2-sample-uniform"``, ``"voter"``, ``"two-choices"``,
``"median"``, ``"undecided-state"``, plus the 3-input-rule factories
(``"majority-rule"``, ``"median-rule"``, ``"skewed-rule"``,
``"three-input-rule"``, ...) — so a declarative
:class:`~repro.scenario.ScenarioSpec` can reference it by name; run
``repro scenarios`` for the full annotated list.  Constructor keywords
(``h=``, ``engine=``, ...) travel in the spec's ``dynamics_params`` dict.

Declared engines
----------------
The engines never ask what type a dynamics is.  Each dynamics declares,
next to its law:

* :meth:`Dynamics.resolved_engine` — ``"counts"`` (the default) or
  ``"agent"`` at ``k`` colors.  The 3-majority, h-plurality and 3-input
  rules take an ``engine=`` keyword (``"counts"``, ``"agent"`` or
  ``"auto"`` = counts): each has an exact law at every ``k`` (and
  h-plurality at every ``h``).
* :meth:`Dynamics.agent_rule` — the per-agent :class:`GraphKernel`: how
  many neighbour colors an agent samples (``h``), how it reduces its own
  color and those samples to its next color, and whether that draws
  randomness.  ``None`` for a dynamics with no per-agent color rule
  (undecided-state carries an extra state).

==================  ========================  ==============================
dynamics            ``resolved_engine(k)``    ``agent_rule(k)``: h, draws
==================  ========================  ==============================
3-majority          counts; ``engine=``       3; draws iff
                    picks agent               ``tie_break="uniform"``
h-plurality         counts; ``engine=``       1, no at h = 1; else h, yes
                    picks agent
3-input rules       counts; ``engine=``       3; draws iff the distinct
                    picks agent               choice is ``"uniform"``
2-sample-uniform    counts                    2, yes
voter               counts                    1, no
two-choices         counts (two-draw          2, no (reads its own color)
                    sampler)
median              counts (class-wise        2, no (reads its own color)
                    draw)
undecided-state     counts (two draws)        none: extra state
==================  ========================  ==============================

:meth:`CountsDynamics.step_many` is the one clique batch entry.  On the
**counts** engine it steps the rows of positive mass in one law draw —
``Multinomial(n, color_law(c))`` over the batch, O(k) per row (h-plurality
at h ≥ 4 evaluates its law in O(k h³ log h)), unless the dynamics brings
its own sampler (two-choices: movers ``Bin(c_i, S)`` then one
multinomial; undecided-state: survivors ``Bin(c_j, (c_j + q)/n)`` then
one multinomial of the undecided pulls; median: one class-wise
multinomial per chunk of rows, O(k²)).  On the **agent** engine it draws
every agent's ``h`` samples and reduces them with the agent rule through
:func:`~repro.core.samplers.batched_agent_step`, O(n·h) per row.
:meth:`Dynamics.step` is its one-row case.

Every counts-engine ``step_many`` returns rows of zero mass unchanged and
draws nothing for them, so dropping such rows never moves the other
rows' draws.  (The agent engine returns them unchanged too, but a batch
with a zero or ragged row steps its rows one by one.)

The agent engine is kept wherever a rule has one because it is the
*statistical ground truth* the counts-level laws are validated against
(``tests/test_counts_engines.py``).  It reduces each chunk of replicas to
its ``(rows, k)`` histograms before drawing the next, so peak memory
stays flat in the replica count.

Orthogonal to the law engine, :func:`repro.core.process.run_ensemble`
selects an **ensemble layout** via its own ``engine=`` keyword:

* ``"dense"`` — replicas step on the full ``(R, k)`` count matrix (the
  historical layout; counts-engine runs are bit-identical to previous
  releases at equal seed, while agent-level engines reordered their
  draws when they went replica-batched, and two-choices and
  undecided-state when they moved to two draws per batch);
* ``"sparse"`` — replicas step on the **union-live-support compacted**
  ``(R, s)`` columns (see :mod:`repro.core.support`), re-compacting with
  hysteresis as colors go extinct, so per-round cost is O(s) not O(k).
  Both law engines ride it unchanged: a support-closed law evaluated on
  the sorted compacted axis equals the dense law restricted to the
  support, and the agent-level samplers only ever draw supported colors.
  Every law costs O(s) or more per row on it, not O(k): for
  :class:`~repro.core.majority.HPlurality` at ``h >= 4`` that is
  O(s h³ log h) instead of O(k h³ log h);
* ``"auto"`` — sparse once ``k`` is large (and the dynamics / adversary /
  stopping rule are all sparse-eligible), dense otherwise.

A third axis is the **topology**: everything above assumes the clique,
where anonymous counts are a Markov chain.  A
:class:`~repro.scenario.ScenarioSpec` with a ``topology`` field instead
runs on the **graph engine** (:mod:`repro.graphs.ensemble`) — the state
per replica is the full ``(n,)`` color vector, ensembles step an
``(R, n)`` matrix through one CSR neighbor-gather per round, and the
per-agent rule is the dynamics' :meth:`~Dynamics.agent_rule` (the same
rule the clique agent engine runs, so the graph engine on the clique
topology cross-validates against the counts law).  The graph engine
brings only that advance and a color-count reader: it runs on the same
sequential and batched loops as the clique (:mod:`repro.core.process`),
so absorption, stopping and recording are one code path for every
topology.  A dynamics without an agent rule, or with extra non-color
state, has no graph kernel;
:func:`repro.graphs.ensemble.graph_ineligibility` explains why.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .samplers import batched_agent_step, equal_totals, multinomial_step_batch

__all__ = ["Dynamics", "CountsDynamics", "GraphKernel"]

#: Recognised values for the ``engine=`` keyword of selectable dynamics.
ENGINES = ("auto", "counts", "agent")


@dataclass(frozen=True)
class GraphKernel:
    """A dynamics' per-agent decision rule, lifted to aligned arrays.

    ``reduce(own, seen, rng)`` maps the agents' current colors ``(rows,)``
    and their sampled neighbour colors ``(rows, h)`` to the next colors.
    ``consumes_rng`` marks rules whose tie-breaking draws from the stream
    (with data-dependent draw sizes): the graph engine reduces those
    replica by replica on each replica's own stream, so batched and
    sequential runs stay bit-identical; rng-free rules reduce the whole
    flattened batch in one elementwise call (and get ``rng=None``).

    The clique's agent engine runs the same rule with ``own=None``: it
    tracks counts, not agents, so only rules that read the samples alone
    resolve to it.
    """

    h: int
    reduce: Callable[[np.ndarray | None, np.ndarray, np.random.Generator | None], np.ndarray]
    consumes_rng: bool


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


class Dynamics(abc.ABC):
    """Base class for synchronous anonymous dynamics on the clique."""

    #: Human-readable identifier used in result tables.
    name: str = "dynamics"

    #: Whether the rule uses any per-agent state beyond the current color.
    uses_extra_state: bool = False

    #: Whether the rule can never *revive* a color: a color with count zero
    #: is assigned probability zero by the law / can never be produced by a
    #: step.  This is the contract that makes the ensemble runner's
    #: support-compacted ``engine="sparse"`` layout exact.  Every built-in
    #: dynamics opts in (Definition 1 rules return one of their sampled
    #: inputs, so only supported colors are ever adopted), but the default
    #: is False — like ``Adversary.support_preserving`` and
    #: ``Metric.sparse_invariant`` — so a third-party rule with mutation or
    #: noise keeps ``engine="auto"`` dense and makes an explicit
    #: ``"sparse"`` request fail loudly instead of silently never reviving.
    support_closed: bool = False

    #: The ``engine=`` keyword (see :data:`ENGINES`) of dynamics that take
    #: one; the rest step on their law.
    engine: str = "counts"

    @abc.abstractmethod
    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample the configuration after one synchronous round."""

    def step_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance a batch of replicas: ``counts`` has shape ``(R, k)``.

        The default loops :meth:`step` over rows; counts-level dynamics
        step the whole batch at once.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("step_many expects (R, k) counts")
        if counts.shape[0] == 0:
            return counts.copy()
        return np.stack([self.step(row, rng) for row in counts])

    def resolved_engine(self, k: int | None = None) -> str:
        """The engine :meth:`CountsDynamics.step_many` runs at ``k`` colors.

        ``"agent"`` when the ``engine`` keyword asks for it, ``"counts"``
        otherwise; a dynamics whose choice depends on ``k`` overrides this.
        """
        return "agent" if self.engine == "agent" else "counts"

    def agent_rule(self, k: int) -> GraphKernel | None:
        """The per-agent rule over ``h`` sampled colors at ``k`` colors.

        The clique's agent engine and the graph engine both run it.
        ``None`` (the default) when the dynamics has no per-agent color
        rule.
        """
        return None

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Exact per-agent next-color distribution, if known in closed form.

        Raises :class:`NotImplementedError` for dynamics without one (the
        exact Markov analysis is then unavailable for this rule).
        """
        raise NotImplementedError(f"{self.name} has no closed-form color law")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CountsDynamics(Dynamics):
    """Dynamics stepped on the clique's count vector, one batch at a time.

    :meth:`step_many` is the one batch entry and :meth:`step` its one-row
    case.  On the counts engine the rows of positive mass take one draw
    of :meth:`_step_rows`: ``Multinomial(n, color_law(c))`` with the law
    evaluated once on the ``(R, k)`` batch, so :meth:`~Dynamics.color_law`
    must broadcast over leading axes (reduce along ``axis=-1``), unless a
    subclass brings its own sampler.  On the agent engine they run
    :meth:`~Dynamics.agent_rule`.
    """

    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One round for one configuration: the one-row :meth:`step_many`."""
        return self.step_many(np.asarray(counts, dtype=np.int64)[None, :], rng)[0]

    def step_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One round for an ``(R, k)`` batch; rows of zero mass come back unchanged."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("step_many expects (R, k) counts")
        if counts.shape[0] == 0:
            return counts.copy()
        k = counts.shape[1]
        if self.resolved_engine(k) == "counts":
            # Zero-mass rows draw nothing, so dropping them never moves the
            # other rows' draws; an all-live batch goes over whole, uncopied.
            totals = counts.sum(axis=1)
            if totals.all():
                return self._step_rows(counts, totals, rng)
            out = counts.copy()
            live = np.flatnonzero(totals)
            if live.size:
                out[live] = self._step_rows(counts[live], totals[live], rng)
            return out
        if not equal_totals(counts):
            # Ragged or zero-mass rows step one by one; a zero row draws nothing.
            return np.stack([self.step(row, rng) if row.any() else row.copy() for row in counts])
        rule = self.agent_rule(k)
        return batched_agent_step(counts, rule.h, rng, lambda seen, r: rule.reduce(None, seen, r))

    def _step_rows(
        self, counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One counts-engine round for rows that all carry positive mass ``totals``."""
        return multinomial_step_batch(totals, self.color_law(counts), rng)

"""Abstract interface shared by every dynamics in the library.

A *dynamics* (paper, Definition 1) is a synchronous anonymous update rule:
each round, every agent resamples its color from a law that depends only on
the current configuration.  On the clique this makes the count vector a
Markov chain, and each dynamics is fully described by its per-agent
**color law** and/or a **step kernel** that samples the next configuration.

Implementations provide at least one of:

* :meth:`Dynamics.color_law` — the exact per-agent distribution of the next
  color given the configuration (when a closed form exists; enables the
  exact multinomial engine and the exact Markov-chain analysis);

* :meth:`Dynamics.step` — one sampled round.  The default implementation
  samples ``Multinomial(n, color_law(c))``, which is *exact* on the clique;
  agent-level dynamics override it instead.

Dynamics that carry extra per-agent state beyond the color (the
undecided-state protocol) extend the state vector with additional slots and
document the convention; see :mod:`repro.core.undecided`.

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

Engine-selection matrix
-----------------------
Two *law* engines exist (see :mod:`repro.core.samplers`): the exact
**counts-level** engine — one ``Multinomial(n, color_law(c))`` draw per
round, O(k) — and the **agent-level** engine — explicit per-agent sampling,
O(n·h) per round.  Dynamics whose constructor takes an ``engine=`` keyword
accept ``"counts"``, ``"agent"`` or ``"auto"``; the rest are fixed.

=====================  =======================  ===========================
dynamics               default engine           notes
=====================  =======================  ===========================
ThreeMajority          counts (Lemma 1 law)     ``engine="agent"`` (or the
                                                legacy ``agent_level=True``)
                                                for cross-validation /
                                                tie-break ablation
ThreeInputRule         counts (O(k) pattern-    ``engine="agent"`` keeps the
                       decomposed law)          explicit triple sampler
HPlurality             auto: counts for h ≤ 5   composition enumeration,
                       while the composition    C(k+h-1, h) table rows;
                       table stays small,       ``engine="counts"`` forces
                       agent otherwise          it, ``"agent"`` forbids it
TwoSampleUniform       counts (law = c/n)       fixed
Voter                  counts                   fixed
TwoChoices             counts (exact two-draw   fixed, O(k) per row: movers
                       sampler)                 ``Bin(c_i, S)``, then one
                                                multinomial over all movers;
                                                ``step_many`` makes those
                                                two calls for the whole
                                                batch (``step`` is the
                                                one-row batch)
MedianDynamics         counts (class-wise       fixed, O(k²) law per row;
                       product of multinomials) ``step_many`` draws every
                                                class of a chunk of rows in
                                                one call, bit-identical to
                                                looping ``step`` over rows
                                                (base class
                                                ``ClasswiseDynamics``,
                                                which serves median only)
UndecidedState         counts (product form)    fixed, extra state slot;
                                                ``step_many`` makes two
                                                calls per batch: every
                                                row's survivor binomials,
                                                then every row's undecided
                                                multinomial (``step`` is the
                                                one-row batch)
=====================  =======================  ===========================

Every counts-level ``step_many`` returns rows of zero mass unchanged and
draws nothing for them, so dropping such rows never moves the other
rows' draws.  (The agent-level engines return them unchanged too, but a
batch with a zero row takes their per-row fallback.)

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
  For :class:`~repro.core.majority.HPlurality` the compaction also
  shrinks the composition table from C(k+h−1, h) to C(s+h−1, h) rows,
  re-enabling the exact law at ``k`` far beyond the dense auto cutoff;
* ``"auto"`` — sparse once ``k`` is large (and the dynamics / adversary /
  stopping rule are all sparse-eligible), dense otherwise.

A third axis is the **topology**: everything above assumes the clique,
where anonymous counts are a Markov chain.  A
:class:`~repro.scenario.ScenarioSpec` with a ``topology`` field instead
runs on the **graph engine** (:mod:`repro.graphs.ensemble`) — the state
per replica is the full ``(n,)`` color vector, ensembles step an
``(R, n)`` matrix through one CSR neighbor-gather per round, and the
per-agent rule is the dynamics' :class:`~repro.graphs.ensemble.GraphKernel`
(the same agent-level reductions the clique engines use, so the graph
engine on the clique topology cross-validates against the counts law).
The graph engine brings only that advance and a color-count reader: it
runs on the same sequential and batched loops as the clique
(:mod:`repro.core.process`), so absorption, stopping and recording are
one code path for every topology.
Dynamics with extra non-color state (``undecided-state``) have no graph
kernel; :func:`repro.graphs.ensemble.graph_ineligibility` explains why.

The agent-level paths are retained everywhere they exist because they are
the *statistical ground truth* the counts-level laws are validated against
(``tests/test_counts_engines.py``); their ``step_many`` batches the
per-agent draws across replicas through the chunked offset-flattened
categorical kernel (:func:`repro.core.samplers.batched_agent_step`)
instead of a Python loop over rows — each chunk is reduced to its
``(rows, k)`` histograms before the next is drawn, so peak memory
matches the old per-replica path.
"""

from __future__ import annotations

import abc

import numpy as np

from .samplers import multinomial_step, multinomial_step_batch

__all__ = ["Dynamics", "CountsDynamics", "ClasswiseDynamics"]

#: Recognised values for the ``engine=`` keyword of selectable dynamics.
ENGINES = ("auto", "counts", "agent")

#: Upper bound on the ``rows * k * k`` cells one chunk of rows of the
#: class-wise ``step_many`` materialises per temporary (128 KiB of
#: float64).  :class:`ClasswiseDynamics` now serves median only.  The
#: bound caps memory at any ``k`` and keeps a chunk's class laws
#: cache-sized at large ``k``; a single row always fits, however large.
CHUNK_CELLS = 1 << 14


def step_live_rows(step_rows, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``step_rows(live, totals, rng)`` applied to the rows of positive mass.

    Rows of zero mass draw nothing and come back unchanged.  A batch
    whose rows are all live is handed over whole, without a copy, so the
    ensemble runners (which never step an empty replica) take one path.
    """
    if counts.shape[0] == 0:
        return counts.copy()
    totals = counts.sum(axis=1)
    if totals.all():
        return step_rows(counts, totals, rng)
    out = counts.copy()
    live = np.flatnonzero(totals)
    if live.size:
        out[live] = step_rows(counts[live], totals[live], rng)
    return out


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return engine


class Dynamics(abc.ABC):
    """Base class for synchronous anonymous dynamics on the clique."""

    #: Human-readable identifier used in result tables.
    name: str = "dynamics"

    #: Number of neighbor samples each agent draws per round (h of the
    #: paper's h-dynamics classification); informational.
    sample_size: int = 1

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

    #: Whether :meth:`color_law` accepts ``(..., k)`` stacked configurations
    #: and broadcasts over the leading axes (reductions written with
    #: ``axis=-1``).  Enables the loop-free :meth:`CountsDynamics.color_law_batch`
    #: default; laws that reduce over the whole array must leave this False.
    color_law_broadcasts: bool = False

    @abc.abstractmethod
    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample the configuration after one synchronous round."""

    def step_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Advance a batch of replicas: ``counts`` has shape ``(R, k)``.

        The default loops over rows; counts-level dynamics override with a
        single broadcasted multinomial call.
        """
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("step_many expects (R, k) counts")
        if counts.shape[0] == 0:
            return counts.copy()
        return np.stack([self.step(row, rng) for row in counts])

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Exact per-agent next-color distribution, if known in closed form.

        Raises :class:`NotImplementedError` for dynamics without one (the
        exact Markov analysis is then unavailable for this rule).
        """
        raise NotImplementedError(f"{self.name} has no closed-form color law")

    def supports_exact_law(self) -> bool:
        """True when :meth:`color_law` is implemented.

        Resolved *structurally* — the method is overridden somewhere below
        :class:`Dynamics` — and cached per instance, so no throwaway
        configuration is ever evaluated.  Dynamics whose law exists only for
        part of their parameter space (:class:`~repro.core.majority.HPlurality`)
        override this with the precise predicate.
        """
        cached = getattr(self, "_supports_exact_law", None)
        if cached is None:
            cached = type(self).color_law is not Dynamics.color_law
            self._supports_exact_law = cached
        return cached

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CountsDynamics(Dynamics):
    """Dynamics defined by an exact per-agent color law.

    Subclasses implement :meth:`color_law`; stepping is the exact
    multinomial draw, both for single configurations and replica batches.
    Laws written with ``axis=-1`` reductions should set
    :attr:`~Dynamics.color_law_broadcasts` so the batch path is a single
    broadcasted call instead of a Python loop over replicas.
    """

    def color_law_batch(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`color_law` over an ``(R, k)`` batch."""
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("color_law_batch expects (R, k) counts")
        if self.color_law_broadcasts:
            return np.asarray(self.color_law(counts), dtype=np.float64)
        return np.stack([self.color_law(row) for row in counts])

    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        n = int(counts.sum())
        if n == 0:
            return counts.copy()
        return multinomial_step(n, self.color_law(counts), rng)

    def step_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One round for an ``(R, k)`` batch; rows of zero mass come back unchanged."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("step_many expects (R, k) counts")
        return step_live_rows(self._step_rows, counts, rng)

    def _step_rows(
        self, counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One round for rows that all carry positive mass ``totals``."""
        return multinomial_step_batch(totals, self.color_law_batch(counts), rng)


class ClasswiseDynamics(CountsDynamics):
    """Dynamics whose next color also depends on the agent's own color.

    Subclasses implement :meth:`class_transition_matrix`: ``M[i, j]`` is
    the probability that a class-``i`` agent holds color ``j`` next.  The
    next configuration is then the sum of one independent
    ``Multinomial(c_i, M[i])`` per class, and the exact Markov analysis
    (:mod:`repro.analysis.markov`), :meth:`step` and :meth:`step_many` all
    evaluate that one matrix, at O(k²) per row.  Median is the built-in
    rule that steps this way; two-choices and undecided-state expose a
    ``class_transition_matrix`` for the Markov analysis but sample in
    O(k) by a law of their own.
    """

    @abc.abstractmethod
    def class_transition_matrix(self, counts: np.ndarray) -> np.ndarray:
        """``(..., k)`` configurations to ``(..., k, k)`` class laws.

        Broadcasts over leading axes (reductions along ``axis=-1``), and
        raises :class:`ValueError` if any configuration is empty.
        """

    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.sum() == 0:
            return counts.copy()
        mat = self.class_transition_matrix(counts)
        occupied = np.nonzero(counts)[0]
        return rng.multinomial(counts[occupied], mat[occupied]).sum(axis=0)

    def _step_rows(
        self, counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Replica-batched :meth:`step`, bit-identical to looping it over rows.

        One ``multinomial`` call per chunk of rows draws every class of
        every row in row-major order.  NumPy draws nothing for a class of
        count 0, so the stream is exactly that of the per-row
        occupied-class calls (and :meth:`CountsDynamics.step_many` hands
        over only rows of positive mass).
        """
        out = np.empty_like(counts)
        k = counts.shape[1]
        rows = max(1, CHUNK_CELLS // max(1, k * k))
        for start in range(0, counts.shape[0], rows):
            block = counts[start : start + rows]
            draws = rng.multinomial(block, self.class_transition_matrix(block))
            out[start : start + rows] = draws.sum(axis=1)
        return out

"""The paper's protagonist: 3-majority, and its h-sample generalisation.

* :class:`ThreeMajority` — every agent samples three agents u.a.r. (with
  replacement, possibly itself) and adopts the sample's majority color,
  breaking three-way ties by taking the first sample.  Lemma 1 of the paper
  gives the exact per-agent law

      ``p_j = (c_j / n^3) * (n^2 + n c_j - sum_h c_h^2)``,

  which is independent of the tie-break convention; we use it to run the
  exact counts-level engine.  The per-agent rule (explicit triples) is
  kept for cross-validation, for the tie-break ablation and for graphs.

* :class:`HPlurality` — the h-sample plurality rule of Section 4.3.  For
  ``h <= 5`` the per-agent law *is* tractable: the sample histogram is one
  of the ``C(k+h-1, h)`` weak compositions of ``h`` into ``k`` colors, each
  with multinomial probability, and uniform tie-splitting distributes each
  composition's mass over its maximal colors.  We enumerate the
  compositions once per ``(h, k)`` (cached) and evaluate the law as two
  dense matrix products — the exact counts-level engine.  For larger ``h``
  (or ``k`` so large the table would not fit) stepping falls back to the
  agent-level engine: ``h`` categorical samples per agent reduced
  row-wise with uniform tie-breaking.  ``HPlurality(3)`` with uniform
  tie-break has the same marginal law as :class:`ThreeMajority`.

* :class:`TwoSampleUniform` — two samples, ties broken uniformly.  Its law
  collapses to ``p_j = c_j / n`` (the polling/voter process), which is the
  paper's remark that two samples are *not* enough.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dynamics import CountsDynamics, GraphKernel, validate_engine
from .registry import DYNAMICS
from .samplers import row_plurality
from .voter import COPY_FIRST

__all__ = ["ThreeMajority", "HPlurality", "TwoSampleUniform", "three_majority_law"]


def three_majority_law(counts: np.ndarray) -> np.ndarray:
    """Lemma 1's exact next-color law for the 3-majority dynamics.

    ``p_j = (c_j / n^3) (n^2 + n c_j - sum_h c_h^2)``; rows sum to one by
    the identity ``sum_j c_j = n``.  Broadcasts over leading axes.
    """
    c = np.asarray(counts, dtype=np.float64)
    n = c.sum(axis=-1, keepdims=True)
    if np.any(n <= 0):
        raise ValueError("empty configuration has no color law")
    sq = (c * c).sum(axis=-1, keepdims=True)
    return (c / n**3) * (n**2 + n * c - sq)


def _majority_first(own, seen: np.ndarray, rng) -> np.ndarray:
    """Majority of each sample triple; the first sample on three distinct colors.

    If the second and third samples agree they win; any pair involving
    the first sample elects it, as does the all-distinct default.
    """
    return np.where(seen[:, 1] == seen[:, 2], seen[:, 1], seen[:, 0])


def _majority_uniform(own, seen: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Majority of each sample triple; a uniform sample on three distinct colors."""
    out = _majority_first(own, seen, rng)
    a, b, c = seen[:, 0], seen[:, 1], seen[:, 2]
    distinct = (a != b) & (b != c) & (a != c)
    if np.any(distinct):
        pick = rng.integers(0, 3, size=int(distinct.sum()))
        out[distinct] = seen[distinct, :][np.arange(pick.size), pick]
    return out


def _plurality_rule(h: int, k: int) -> GraphKernel:
    """Adopt the plurality of ``h`` samples, ties split uniformly at random."""
    return GraphKernel(
        h=h, reduce=lambda own, seen, rng: row_plurality(seen, k, rng), consumes_rng=True
    )


@DYNAMICS.register("3-majority", summary="3-majority on the clique (Lemma 1 exact law)")
class ThreeMajority(CountsDynamics):
    """3-majority dynamics on the clique (exact counts-level engine).

    Parameters
    ----------
    tie_break:
        ``"first"`` (paper's rule) or ``"uniform"``; only observable in
        agent-level mode and only through joint statistics — the marginal
        law (hence the counts process) is the same, which the ablation
        bench verifies empirically.
    engine:
        ``"counts"`` / ``"auto"`` (= counts; the law always exists) or
        ``"agent"``: sample explicit triples per agent instead of the
        Lemma 1 multinomial — statistically identical, ~n/k times slower;
        used by the validation tests and the engine ablation.
    """

    name = "3-majority"
    sample_size = 3
    color_law_broadcasts = True
    support_closed = True  # agents adopt a sampled color

    def __init__(self, tie_break: str = "first", engine: str = "auto"):
        if tie_break not in ("first", "uniform"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break
        self.engine = validate_engine(engine)

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        return three_majority_law(counts)

    def agent_rule(self, k: int) -> GraphKernel:
        if self.tie_break == "uniform":
            return GraphKernel(h=3, reduce=_majority_uniform, consumes_rng=True)
        return GraphKernel(h=3, reduce=_majority_first, consumes_rng=False)


class _CompositionTable:
    """Exact-law machinery for one block of h-plurality sample multisets.

    ``rows`` enumerates multisets of ``h`` samples over ``k`` colors (weak
    compositions of ``h``), each row sorted ascending.  For a probability
    vector ``p`` the block's law contribution is

        ``law = (coeff * prod(p[sup_idx] ** sup_exp, axis=1)) @ winners``

    where ``coeff`` is the multinomial coefficient, ``sup_idx``/``sup_exp``
    the ≤ h support colors with their multiplicities (padding exponent 0,
    exploiting ``0.0 ** 0 == 1.0``), and ``winners[r]`` splits row ``r``'s
    mass uniformly over its maximal colors.
    """

    def __init__(self, h: int, k: int, rows: np.ndarray | None = None):
        if rows is None:
            rows = np.array(
                list(itertools.combinations_with_replacement(range(k), h)), dtype=np.int64
            )
        mult = (rows[:, :, None] == rows[:, None, :]).sum(axis=2)  # multiplicity per slot
        first = np.ones_like(rows, dtype=bool)
        first[:, 1:] = rows[:, 1:] != rows[:, :-1]  # first slot of each distinct color
        fact = np.array([math.factorial(i) for i in range(h + 1)], dtype=np.float64)
        self.coeff = fact[h] / np.where(first, fact[mult], 1.0).prod(axis=1)
        self.sup_idx = rows
        self.sup_exp = np.where(first, mult, 0).astype(np.float64)
        top = mult.max(axis=1, keepdims=True)
        win = first & (mult == top)
        weights = win / win.sum(axis=1, keepdims=True)
        self.winners = np.zeros((rows.shape[0], k))
        np.add.at(self.winners, (np.arange(rows.shape[0])[:, None], rows), weights)

    def law(self, p: np.ndarray) -> np.ndarray:
        """Exact law for ``p`` of shape ``(k,)`` or a batch ``(R, k)``."""
        probs = self.coeff * np.prod(p[..., self.sup_idx] ** self.sup_exp, axis=-1)
        return probs @ self.winners


def _streamed_composition_law(h: int, k: int, p: np.ndarray, block_rows: int) -> np.ndarray:
    """Composition law evaluated in bounded-memory blocks.

    Used when the full ``(C, k)`` winner table would be too large to cache:
    enumerate compositions in blocks, accumulate each block's contribution,
    never materialising more than ``block_rows`` rows at once.
    """
    law = np.zeros(p.shape, dtype=np.float64)
    stream = itertools.combinations_with_replacement(range(k), h)
    while True:
        block = list(itertools.islice(stream, block_rows))
        if not block:
            return law
        law += _CompositionTable(h, k, np.array(block, dtype=np.int64)).law(p)


@DYNAMICS.register("h-plurality", summary="plurality of h uniform samples (Section 4.3)")
class HPlurality(CountsDynamics):
    """h-plurality dynamics: adopt the plurality of ``h`` uniform samples.

    Ties among maximal sample colors are broken uniformly at random
    (Section 4.3 of the paper).

    Parameters
    ----------
    h:
        Sample size.
    engine:
        ``"counts"`` — exact multinomial stepping from the closed-form law
        (``h <= 3``) or the composition-enumeration law (``h <= 5``, any
        ``k``: oversized tables are evaluated in streamed blocks, correct
        but slow — raises only for ``h > 5``); ``"agent"`` — explicit
        per-agent sampling, O(n·h) per round; ``"auto"`` (default) — counts
        whenever the composition table is comfortably small
        (``counts_table_cap`` rows), agent-level otherwise.
    counts_table_cap:
        Row budget the ``"auto"`` engine allows the composition table
        before falling back to agent-level stepping.  Defaults to
        :attr:`_MAX_AUTO_COMPOSITIONS` (100k rows); raise it to keep large
        ``(h, k)`` points on the exact counts engine (correct at any size
        — oversized tables stream in blocks, trading memory for time).
        Travels through a :class:`~repro.scenario.ScenarioSpec` as
        ``dynamics_params={"h": ..., "counts_table_cap": ...}`` or via
        ``repro simulate --counts-table-cap``.
    """

    name = "h-plurality"
    color_law_broadcasts = True
    support_closed = True  # the plurality of a sample is one of the samples

    #: largest h with a counts-level engine (composition enumeration).
    _MAX_COUNTS_H = 5
    #: auto engine switches to agent-level above this many table rows.
    _MAX_AUTO_COMPOSITIONS = 100_000
    #: tables up to this many cells (rows × k) are built whole and cached;
    #: larger laws are evaluated by streaming composition blocks instead.
    _MAX_TABLE_CELLS = 2**24

    def __init__(self, h: int, engine: str = "auto", counts_table_cap: int | None = None):
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        self.h = int(h)
        self.sample_size = self.h
        self.name = f"{h}-plurality"
        self.engine = validate_engine(engine)
        if counts_table_cap is not None:
            counts_table_cap = int(counts_table_cap)
            if counts_table_cap < 1:
                raise ValueError(f"counts_table_cap must be >= 1, got {counts_table_cap}")
        self.counts_table_cap = counts_table_cap
        self._tables: dict[int, _CompositionTable] = {}

    # -- engine selection ------------------------------------------------------

    @staticmethod
    def composition_count(h: int, k: int) -> int:
        """Number of weak compositions of ``h`` into ``k`` parts."""
        return math.comb(k + h - 1, h)

    def counts_engine_available(self, k: int) -> bool:
        """Whether the exact counts-level law exists at all (any ``k``)."""
        return self.h <= self._MAX_COUNTS_H

    def resolved_engine(self, k: int) -> str:
        """The engine :meth:`step_many` runs at this ``k``: the table-size rule."""
        if self.engine == "agent":
            return "agent"
        if self.engine == "counts":
            if not self.counts_engine_available(k):
                raise ValueError(
                    f"engine='counts' unavailable for {self.name} (h > {self._MAX_COUNTS_H})"
                )
            return "counts"
        if self.h <= 3:
            return "counts"
        cap = self.counts_table_cap if self.counts_table_cap is not None else self._MAX_AUTO_COMPOSITIONS
        if self.h <= self._MAX_COUNTS_H and self.composition_count(self.h, k) <= cap:
            return "counts"
        return "agent"

    def _table(self, k: int) -> _CompositionTable:
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = _CompositionTable(self.h, k)
        return table

    # -- dynamics interface ----------------------------------------------------

    def supports_exact_law(self) -> bool:
        return self.h <= self._MAX_COUNTS_H

    def agent_rule(self, k: int) -> GraphKernel:
        return COPY_FIRST if self.h == 1 else _plurality_rule(self.h, k)

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Exact law: closed forms for ``h <= 3``, compositions for ``h <= 5``.

        Broadcasts over leading axes (the composition path vectorizes over
        replica batches through the same cached table).  When the full
        composition table would exceed :attr:`_MAX_TABLE_CELLS` the law is
        evaluated by streaming blocks — same result, bounded memory, O(C·h)
        time (so very large ``k`` is slow but never wrong, keeping the
        :meth:`supports_exact_law` contract exact for every ``h <= 5``).
        """
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        k = c.shape[-1]
        if self.h <= 2:
            # h = 1 is the voter model; h = 2 with uniform tie-split also
            # collapses to polling: p² + 2·p(1-p)/2 = p.
            return c / n
        if self.h == 3:
            return three_majority_law(c)
        if self.h > self._MAX_COUNTS_H:
            raise NotImplementedError(
                f"no tractable color law for {self.name}; use the agent-level engine"
            )
        p = c / n
        replicas = p.shape[0] if p.ndim == 2 else 1
        ncomp = self.composition_count(self.h, k)
        if ncomp * k > self._MAX_TABLE_CELLS:
            # Composition stream sized so each (R, block, h) intermediate
            # stays within the cell budget.
            block_rows = max(1, self._MAX_TABLE_CELLS // (k * replicas))
            return _streamed_composition_law(self.h, k, p, block_rows)
        table = self._table(k)
        if p.ndim == 2 and replicas * ncomp * self.h > self._MAX_TABLE_CELLS:
            # Large replica batches: evaluate in replica blocks so the
            # (R, C, h) power intermediate stays bounded.
            rows_per_block = max(1, self._MAX_TABLE_CELLS // (ncomp * self.h))
            return np.concatenate(
                [table.law(p[i : i + rows_per_block]) for i in range(0, replicas, rows_per_block)]
            )
        return table.law(p)


@DYNAMICS.register("2-sample-uniform", summary="two samples, uniform tie-break (= polling)")
class TwoSampleUniform(CountsDynamics):
    """Two samples with uniform tie-breaking — provably just polling.

    ``p_j = (c_j/n)^2 + 2 (c_j/n)(1 - c_j/n) / 2 = c_j / n``: the same
    marginal as the voter model, hence (paper, Section 1) it converges to a
    minority with constant probability even under bias Θ(n).
    """

    name = "2-sample-uniform"
    sample_size = 2
    color_law_broadcasts = True
    support_closed = True  # law collapses to c/n

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        c = np.asarray(counts, dtype=np.float64)
        return c / c.sum(axis=-1, keepdims=True)

    def agent_rule(self, k: int) -> GraphKernel:
        return _plurality_rule(2, k)

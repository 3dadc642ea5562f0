"""One- and two-sample baselines the paper contrasts against.

* :class:`Voter` (the *polling* / 1-majority process [Hassin-Peleg 01]):
  copy one uniform sample.  Martingale in each color count; the consensus
  color is color ``j`` with probability exactly ``c_j / n``, so it elects a
  minority with constant probability even at bias Θ(n) — experiment E9.

* :class:`TwoChoices`: sample two agents, adopt their color iff they agree,
  otherwise keep your own.  For ``k = 2`` this is fast and correct
  w.h.p. under √(n log n) bias; for large ``k`` from balanced starts the
  per-round progress is Θ(1/k) agreements, the "stall" E9 exhibits.

Two-choices is exact at O(k) per replica: an agent moves only when its
two samples agree, which happens with probability ``S = Σ_j (c_j/n)²``
whatever its color, and it then holds ``j`` with probability
``(c_j/n)² / S``.  So a round is one binomial per class (the movers) and
one multinomial over all movers; a replica batch makes those two draws
for all its rows at once.  The batch draws every binomial before any
multinomial, so it is *not* the per-row loop's stream; ``step`` is the
one-row batch.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CountsDynamics, GraphKernel
from .registry import DYNAMICS

__all__ = ["Voter", "TwoChoices", "COPY_FIRST"]

#: Copy the one sampled color: the voter rule, and h-plurality's at h = 1.
COPY_FIRST = GraphKernel(h=1, reduce=lambda own, seen, rng: seen[:, 0], consumes_rng=False)


def _adopt_agreeing_pair(own: np.ndarray, seen: np.ndarray, rng) -> np.ndarray:
    return np.where(seen[:, 0] == seen[:, 1], seen[:, 0], own)


@DYNAMICS.register("voter", summary="1-sample polling baseline")
class Voter(CountsDynamics):
    """Polling dynamics: adopt the color of one uniform sample."""

    name = "voter"
    support_closed = True  # copies a sampled color

    def agent_rule(self, k: int) -> GraphKernel:
        return COPY_FIRST

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        return c / n


@DYNAMICS.register("two-choices", summary="adopt a doubly-sampled color, else keep own")
class TwoChoices(CountsDynamics):
    """Two-choices dynamics: adopt a doubly-sampled color, else keep own.

    Not a pure anonymous color law — the next color depends on the agent's
    current color: a class-``i`` agent moves to ``j`` with probability
    ``(c_j/n)^2`` for ``j != i`` and stays with the remaining mass
    (:meth:`class_transition_matrix`, the exact Markov analysis' input).
    The sampler splits that law into "the two samples agree" (probability
    ``S``, the same for every class) and "which color they agree on"
    (``(c_j/n)^2 / S``, the same for every mover), so one round is
    ``c - m + Multinomial(sum(m), (c/n)^2 / S)`` with ``m_i ~ Bin(c_i, S)``.
    """

    name = "two-choices"
    support_closed = True  # adopts a sampled color or keeps its own

    def agent_rule(self, k: int) -> GraphKernel:
        return GraphKernel(h=2, reduce=_adopt_agreeing_pair, consumes_rng=False)

    def _step_rows(
        self, counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Two draws for all rows: the movers per class, then where they land."""
        f = counts / totals[:, None]
        sq = f * f
        agree = sq.sum(axis=1)
        # Round-off can put S an ulp above 1, which binomial rejects.
        movers = rng.binomial(counts, np.minimum(agree, 1.0)[:, None])
        landed = rng.multinomial(movers.sum(axis=1), sq / agree[:, None])
        return counts - movers + landed

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        # Marginal law over a uniformly random agent (used by the exact
        # Markov analysis): average the class-conditional laws weighted by
        # class sizes.  Note the *joint* step is NOT multinomial in this
        # law; _step_rows() draws the exact two-draw sampler instead.
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        f = c / n
        sq = f * f
        stay_extra = 1.0 - sq.sum(axis=-1, keepdims=True)
        # P(agent ends j) = P(start j) * (stay) + P(any start) * (c_j/n)^2
        return f * stay_extra + sq

    def class_transition_matrix(self, counts: np.ndarray) -> np.ndarray:
        """``M[..., i, j]``: probability a class-``i`` agent has color ``j`` next."""
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no transition matrix")
        f = c / n
        sq = f * f
        k = c.shape[-1]
        mat = np.repeat(sq[..., None, :], k, axis=-2)
        diag = np.arange(k)
        mat[..., diag, diag] = 1.0 - (sq.sum(axis=-1, keepdims=True) - sq)  # 1 - sum_{j != i}
        return mat

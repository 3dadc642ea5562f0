"""One- and two-sample baselines the paper contrasts against.

* :class:`Voter` (the *polling* / 1-majority process [Hassin-Peleg 01]):
  copy one uniform sample.  Martingale in each color count; the consensus
  color is color ``j`` with probability exactly ``c_j / n``, so it elects a
  minority with constant probability even at bias Θ(n) — experiment E9.

* :class:`TwoChoices`: sample two agents, adopt their color iff they agree,
  otherwise keep your own.  For ``k = 2`` this is fast and correct
  w.h.p. under √(n log n) bias; for large ``k`` from balanced starts the
  per-round progress is Θ(1/k) agreements, the "stall" E9 exhibits.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ClasswiseDynamics, CountsDynamics
from .registry import DYNAMICS

__all__ = ["Voter", "TwoChoices"]


@DYNAMICS.register("voter", summary="1-sample polling baseline")
class Voter(CountsDynamics):
    """Polling dynamics: adopt the color of one uniform sample."""

    name = "voter"
    sample_size = 1
    color_law_broadcasts = True
    support_closed = True  # copies a sampled color

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        return c / n


@DYNAMICS.register("two-choices", summary="adopt a doubly-sampled color, else keep own")
class TwoChoices(ClasswiseDynamics):
    """Two-choices dynamics: adopt a doubly-sampled color, else keep own.

    Not a pure anonymous color law — the next color depends on the agent's
    current color — so the exact engine treats each current-color class
    separately: a class-``i`` agent moves to ``j`` with probability
    ``(c_j/n)^2`` for ``j != i`` and stays with the remaining mass.  The
    next configuration is the sum of ``k`` independent multinomials, one
    per class; :meth:`~repro.core.dynamics.ClasswiseDynamics.step_many`
    draws them for a whole replica batch in one call per chunk of rows,
    bit-identical to stepping the rows one by one.
    """

    name = "two-choices"
    sample_size = 2
    support_closed = True  # adopts a sampled color or keeps its own

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        # Marginal law over a uniformly random agent (used by the exact
        # Markov analysis): average the class-conditional laws weighted by
        # class sizes.  Note the *joint* step below is NOT multinomial in
        # this law; step() overrides with the exact class-wise sampling.
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum()
        if n <= 0:
            raise ValueError("empty configuration has no color law")
        f = c / n
        sq = f * f
        stay_extra = 1.0 - sq.sum()
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

"""Median dynamics of Doerr et al. [SPAA'11] — the paper's main foil.

Each agent keeps its own value and samples two agents u.a.r.; its next
value is the *median* of the three (values are totally ordered; colors are
identified with their indices ``0 < 1 < ... < k-1``).  For ``k = 2`` this
coincides with 3-majority restricted to {own, sample, sample}; for ``k >= 3``
it solves *median* consensus, not plurality — Theorem 3 of the paper shows
it lacks the uniform property, and experiment E5 shows it electing a
non-plurality color.

Exact counts-level law: for an agent with value ``x`` and sample CDF ``F``
(``F(v) = (sum_{u <= v} c_u)/n``),

    ``P(median <= v) = 1 - (1 - F(v))^2``  if ``v >= x``  (needs >= 1 sample <= v)
    ``P(median <= v) = F(v)^2``            if ``v <  x``  (needs both samples <= v)

so each current-value class has a closed-form next-value pmf
(:meth:`MedianDynamics.class_transition_matrix`) and the next
configuration is a sum of ``k`` independent multinomials, one per class,
at O(k²) per row.  A replica batch draws every class of a chunk of rows
in one call, bit-identical to stepping the rows one by one.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CountsDynamics, GraphKernel
from .registry import DYNAMICS

__all__ = ["MedianDynamics"]

#: Upper bound on the ``rows * k * k`` cells one chunk of rows of
#: :meth:`MedianDynamics.step_many` materialises per temporary (128 KiB
#: of float64).  It caps memory at any ``k`` and keeps a chunk's class
#: laws cache-sized at large ``k``; a single row always fits, however
#: large.
CHUNK_CELLS = 1 << 14


def _median_of_three(own: np.ndarray, seen: np.ndarray, rng) -> np.ndarray:
    """The middle of own value and two samples, branch-free."""
    a, b, c = own, seen[:, 0], seen[:, 1]
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


@DYNAMICS.register("median", summary="Doerr et al. median rule (the paper's foil)")
class MedianDynamics(CountsDynamics):
    """Doerr et al.'s median rule: own value + two uniform samples."""

    name = "median"
    support_closed = True  # the median of three values is one of them

    def agent_rule(self, k: int) -> GraphKernel:
        return GraphKernel(h=2, reduce=_median_of_three, consumes_rng=False)

    def _step_rows(
        self, counts: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The class-wise draw, bit-identical to stepping the rows one by one.

        One ``multinomial`` call per chunk of rows draws every class of
        every row in row-major order.  NumPy draws nothing for a class of
        count 0, so the stream is exactly that of per-row calls over the
        occupied classes.
        """
        out = np.empty_like(counts)
        k = counts.shape[1]
        rows = max(1, CHUNK_CELLS // max(1, k * k))
        for start in range(0, counts.shape[0], rows):
            block = counts[start : start + rows]
            draws = rng.multinomial(block, self.class_transition_matrix(block))
            out[start : start + rows] = draws.sum(axis=1)
        return out

    def class_transition_matrix(self, counts: np.ndarray) -> np.ndarray:
        """``M[..., x, v]``: probability a class-``x`` agent moves to value ``v``.

        Built from the two-branch CDF formula above, vectorised over all
        (x, v) pairs at O(k^2) cost per configuration.
        """
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no transition matrix")
        k = c.shape[-1]
        F = np.cumsum(c, axis=-1) / n  # F[v] = P(sample <= v)
        vals = np.arange(k)
        # cdf_next[x, v] = P(median(x, A, B) <= v)
        below = F**2  # row used where v < x
        above = 1.0 - (1.0 - F) ** 2  # row used where v >= x
        cdf_next = np.where(vals[None, :] >= vals[:, None], above[..., None, :], below[..., None, :])
        pmf = np.diff(cdf_next, axis=-1, prepend=0.0)
        # Clamp tiny negative round-off and renormalise each row.
        pmf = np.clip(pmf, 0.0, None)
        pmf /= pmf.sum(axis=-1, keepdims=True)
        return pmf

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Marginal next-value law of a uniformly random agent."""
        c = np.asarray(counts, dtype=np.float64)
        n = c.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty configuration has no color law")
        mat = self.class_transition_matrix(counts)
        return ((c / n)[..., None, :] @ mat)[..., 0, :]

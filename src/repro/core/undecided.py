"""The undecided-state dynamics (Angluin et al.; parallel version SODA'15).

The one extra state the paper's Definition 1 *forbids*: besides the ``k``
colors, agents may be *undecided*.  Every round each agent pulls the state
of one agent chosen u.a.r. (with replacement, possibly itself):

* a colored agent that pulls a *different* color becomes undecided; pulling
  its own color or an undecided agent leaves it unchanged;
* an undecided agent adopts the pulled color; pulling another undecided
  agent leaves it undecided.

Becchetti et al. [SODA'15] show its convergence time is linear in the
monochromatic distance ``md(c)`` — exponentially faster than 3-majority on
some configurations, but able to *lose the plurality* when k = ω(√n).
Experiment E9 reproduces both sides of this comparison.

State convention: a length ``k+1`` vector, entries ``0..k-1`` the color
counts and entry ``k`` the undecided count.  The exact engine is O(k) per
round: each colored class survives by an independent binomial and the
undecided mass recolors by one multinomial.  A replica batch computes
those laws for a chunk of rows at once and keeps only the two draws per
row in a loop, so it is bit-identical to stepping the rows one by one.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CHUNK_CELLS, Dynamics
from .registry import DYNAMICS
from .samplers import multinomial_step

__all__ = ["UndecidedState"]


@DYNAMICS.register("undecided-state", summary="undecided-state protocol (SODA'15 comparison)")
class UndecidedState(Dynamics):
    """Undecided-state plurality protocol (synchronous pull model)."""

    name = "undecided-state"
    sample_size = 1
    uses_extra_state = True

    # -- state helpers ---------------------------------------------------

    @staticmethod
    def extend_counts(counts: np.ndarray, undecided: int = 0) -> np.ndarray:
        """Embed a k-color count vector into the (k+1)-slot state."""
        counts = np.asarray(counts, dtype=np.int64)
        if undecided < 0:
            raise ValueError("undecided count must be non-negative")
        return np.concatenate([counts, [undecided]])

    @staticmethod
    def colored_view(state: np.ndarray) -> np.ndarray:
        """Color counts (drop the trailing undecided slot)."""
        state = np.asarray(state)
        return state[..., :-1]

    @staticmethod
    def undecided_count(state: np.ndarray) -> np.ndarray:
        state = np.asarray(state)
        return state[..., -1]

    # -- dynamics ----------------------------------------------------------

    def step(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One synchronous round on a (k+1)-slot state vector."""
        state = np.asarray(counts, dtype=np.int64)
        if state.ndim != 1 or state.size < 2:
            raise ValueError("undecided-state expects a (k+1)-slot state vector")
        c = state[:-1]
        q = int(state[-1])
        n = int(state.sum())
        if n == 0:
            return state.copy()
        # Colored class j survives with probability (c_j + q) / n.
        survive_p = (c + q) / n
        survivors = rng.binomial(c, survive_p)
        # Undecided agents recolor by one pull each.
        if q > 0:
            pull_law = state / n  # entry k = stay undecided
            recolored = multinomial_step(q, pull_law, rng)
        else:
            recolored = np.zeros(state.size, dtype=np.int64)
        new_c = survivors + recolored[:-1]
        new_q = int(n - new_c.sum())
        return np.concatenate([new_c, [new_q]]).astype(np.int64)

    def step_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Replica-batched :meth:`step`, bit-identical to looping it over rows.

        The survive and pull laws are computed for a chunk of rows at once
        (chunks bounded by :data:`~repro.core.dynamics.CHUNK_CELLS`);
        only each row's two draws (its binomials, then its undecided
        multinomial) stay in the loop, in the order :meth:`step` makes
        them.  Rows of zero mass draw nothing and are returned unchanged.
        """
        states = np.asarray(counts, dtype=np.int64)
        if states.ndim != 2 or states.shape[1] < 2:
            raise ValueError("step_many expects (R, k+1) states")
        out = states.copy()
        live = np.flatnonzero(states.sum(axis=1))
        rows = max(1, CHUNK_CELLS // states.shape[1])
        for start in range(0, live.size, rows):
            chunk = live[start : start + rows]
            block = states[chunk]
            n = block.sum(axis=1, keepdims=True)
            c = block[:, :-1]
            q = block[:, -1]
            survive_p = (c + q[:, None]) / n
            pull_law = np.clip(block / n, 0.0, None)
            pull_law /= pull_law.sum(axis=1, keepdims=True)
            new_c = np.empty_like(c)
            for row in range(chunk.size):
                new_c[row] = rng.binomial(c[row], survive_p[row])
                if q[row] > 0:
                    new_c[row] += rng.multinomial(q[row], pull_law[row])[:-1]
            out[chunk, :-1] = new_c
            out[chunk, -1] = n[:, 0] - new_c.sum(axis=1)
        return out

    def class_transition_matrix(self, state: np.ndarray) -> np.ndarray:
        """``M[i, j]`` over the k+1 slots (undecided = last row/column)."""
        state = np.asarray(state, dtype=np.float64)
        n = state.sum()
        if n <= 0:
            raise ValueError("empty state has no transition matrix")
        kp1 = state.size
        c = state[:-1]
        q = state[-1]
        mat = np.zeros((kp1, kp1))
        # colored classes
        for i in range(kp1 - 1):
            stay = (c[i] + q) / n
            mat[i, i] = stay
            mat[i, -1] = 1.0 - stay
        # undecided class
        mat[-1, :-1] = c / n
        mat[-1, -1] = q / n
        return mat

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Marginal next-state law of a uniformly random agent."""
        state = np.asarray(counts, dtype=np.float64)
        n = state.sum()
        if n <= 0:
            raise ValueError("empty state has no color law")
        return (state / n) @ self.class_transition_matrix(state)

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
undecided mass recolors by one multinomial.  That is the ``_step_rows``
sampler :meth:`~repro.core.dynamics.CountsDynamics.step_many` calls, so a
replica batch makes two NumPy calls whatever its size: one binomial over
every colored class of every row, then one multinomial over every row's
undecided agents.  So it draws every binomial before any multinomial and
is *not* the per-row loop's stream; a one-row batch is
:meth:`UndecidedState.step`.
"""

from __future__ import annotations

import numpy as np

from .dynamics import CountsDynamics
from .registry import DYNAMICS

__all__ = ["UndecidedState"]


@DYNAMICS.register("undecided-state", summary="undecided-state protocol (SODA'15 comparison)")
class UndecidedState(CountsDynamics):
    """Undecided-state plurality protocol (synchronous pull model)."""

    name = "undecided-state"
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

    def _step_rows(
        self, states: np.ndarray, totals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Two draws for all rows: the colored survivors, then the undecided pulls."""
        if states.shape[1] < 2:
            raise ValueError("undecided-state expects a (k+1)-slot state vector")
        n = totals[:, None]
        c = states[:, :-1]
        q = states[:, -1]
        # Colored class j survives with probability (c_j + q) / n.
        new_c = rng.binomial(c, (c + q[:, None]) / n)
        # Undecided agents recolor by one pull each (slot k: stay undecided).
        pull_law = states / n
        pull_law /= pull_law.sum(axis=1, keepdims=True)
        new_c += rng.multinomial(q, pull_law)[:, :-1]
        out = np.empty_like(states)
        out[:, :-1] = new_c
        out[:, -1] = totals - new_c.sum(axis=1)
        return out

    def class_transition_matrix(self, state: np.ndarray) -> np.ndarray:
        """``M[..., i, j]`` over the k+1 slots (undecided = last row/column)."""
        state = np.asarray(state, dtype=np.float64)
        n = state.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty state has no transition matrix")
        kp1 = state.shape[-1]
        colored = np.arange(kp1 - 1)
        # A colored agent keeps its color when it pulls it or an undecided one.
        stay = (state[..., :-1] + state[..., -1:]) / n
        mat = np.zeros(state.shape + (kp1,))
        mat[..., colored, colored] = stay
        mat[..., colored, -1] = 1.0 - stay
        # An undecided agent takes whatever state it pulls.
        mat[..., -1, :] = state / n
        return mat

    def color_law(self, counts: np.ndarray) -> np.ndarray:
        """Marginal next-state law of a uniformly random agent."""
        state = np.asarray(counts, dtype=np.float64)
        n = state.sum(axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise ValueError("empty state has no color law")
        return ((state / n)[..., None, :] @ self.class_transition_matrix(state))[..., 0, :]

"""F-bounded dynamic adversaries (paper, Section 3.1).

A *T-bounded dynamic adversary* observes the full configuration at the end
of each round and may arbitrarily recolor up to ``T`` agents before the
next round begins.  Corollary 4 shows 3-majority still reaches
``O(s/λ)``-plurality consensus when ``F = o(s/λ)``.

Adversaries here operate on count vectors (the clique is anonymous, so a
count-level action is fully general) and must satisfy two contracts,
enforced by :meth:`Adversary.corrupt_many`:

* total mass is preserved;
* at most ``budget`` agents change color (L1 distance ≤ 2·budget).

A strategy implements one method, :meth:`Adversary._act_many`, on an
``(R, k)`` batch: replica ensembles corrupt all rows in one call, and
:meth:`Adversary.corrupt` (one trajectory) is its one-row case.
"""

from __future__ import annotations

import abc

import numpy as np

from .registry import ADVERSARIES, checked_int

__all__ = [
    "Adversary",
    "TargetedAdversary",
    "BalancingAdversary",
    "RandomAdversary",
    "ReviveAdversary",
]


class Adversary(abc.ABC):
    """Base class; subclasses implement :meth:`_act_many` on a copy of a batch."""

    #: True when the strategy never moves mass onto a color whose count is
    #: zero *and* its action depends only on the supported counts — so
    #: acting on a support-compacted ``(R, s)`` batch and scattering back
    #: equals acting on the dense ``(R, k)`` one.  This is the contract the
    #: ensemble runner's ``engine="sparse"`` layout needs; strategies that
    #: can revive extinct colors (targeted's monochromatic corner, random's
    #: uniform-over-k refill, revive by design) must leave it False, which
    #: keeps ``engine="auto"`` dense and makes an explicit ``"sparse"``
    #: request fail loudly instead of silently changing the strategy.
    support_preserving: bool = False

    def __init__(self, budget: int):
        self.budget = checked_int("budget", budget, 0)

    @abc.abstractmethod
    def _act_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Corrupt an ``(R, k)`` batch; may assume a private mutable copy."""

    def corrupt(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the adversary to one configuration: the one-row :meth:`corrupt_many`."""
        return self.corrupt_many(np.asarray(counts)[None, :], rng)[0]

    def corrupt_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the adversary to every row of an ``(R, k)`` batch.

        Validation of the mass/budget contract is a single vectorized pass
        over the batch.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("corrupt_many expects (R, k) counts")
        out = np.asarray(self._act_many(counts.copy(), rng), dtype=np.int64)
        self._validate(counts, out)
        return out

    def _validate(self, before: np.ndarray, after: np.ndarray) -> None:
        if after.shape != before.shape:
            raise RuntimeError("adversary changed the number of colors")
        if np.any(after.sum(axis=1) != before.sum(axis=1)):
            raise RuntimeError("adversary changed the number of agents")
        if np.any(after < 0):
            raise RuntimeError("adversary produced negative counts")
        moved = np.abs(after - before).sum(axis=1) // 2
        if np.any(moved > self.budget):
            raise RuntimeError(
                f"adversary moved {int(moved.max())} agents, budget {self.budget}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(budget={self.budget})"


@ADVERSARIES.register("targeted")
class TargetedAdversary(Adversary):
    """Worst-case strategy: move plurality supporters to the runner-up.

    This directly attacks the bias ``s(c)``, reducing it by ``2F`` per
    round — the strategy against which Corollary 4's bound is stated.
    """

    def _act_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if counts.shape[0] == 0:
            return counts
        rows = np.arange(counts.shape[0])
        top = np.argmax(counts, axis=1)
        top_vals = counts[rows, top]
        masked = counts.copy()
        masked[rows, top] = -1
        runner = np.argmax(masked, axis=1)
        move = np.minimum(self.budget, top_vals)
        counts[rows, top] -= move
        counts[rows, runner] += move
        return counts


@ADVERSARIES.register("balancing")
class BalancingAdversary(Adversary):
    """Greedy bias-minimiser: repeatedly level the top two *supported* colors.

    Moves up to ``budget`` agents from the current maximum to the current
    minimum-among-supported colors, one greedy unit block at a time; a
    stronger bias-reduction than :class:`TargetedAdversary` when several
    colors are close to the top.  Extinct (count-0) colors are never fed:
    this adversary attacks the bias, not Lemma 5's extinction argument, so
    dead colors stay dead.  All rows run the greedy schedule in lock-step
    (each iteration is one broadcast argmax/argmin pass over the
    still-active rows), bit-identical to a per-row loop.

    Because it only ever looks at and feeds supported colors, this is the
    one built-in strategy with :attr:`~Adversary.support_preserving` set:
    acting on the sparse engine's support-compacted columns is exactly the
    dense action.
    """

    support_preserving = True

    def _act_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if counts.shape[0] == 0 or self.budget == 0:
            return counts
        replicas = counts.shape[0]
        remaining = np.full(replicas, self.budget, dtype=np.int64)
        active = np.ones(replicas, dtype=bool)
        while True:
            rows = np.nonzero(active)[0]
            if rows.size == 0:
                break
            sub = counts[rows]
            pick = np.arange(rows.size)
            supported = sub > 0
            top = np.argmax(sub, axis=1)
            low = np.argmin(np.where(supported, sub, np.iinfo(np.int64).max), axis=1)
            gap = sub[pick, top] - sub[pick, low]
            move = np.minimum(remaining[rows], gap // 2)
            progressing = (supported.sum(axis=1) > 1) & (gap > 1) & (move > 0)
            stalled = rows[~progressing]
            active[stalled] = False
            rows = rows[progressing]
            if rows.size == 0:
                break
            top, low, move = top[progressing], low[progressing], move[progressing]
            counts[rows, top] -= move
            counts[rows, low] += move
            remaining[rows] -= move
            active[rows] = remaining[rows] > 0
        return counts


@ADVERSARIES.register("random")
class RandomAdversary(Adversary):
    """Noise model: recolor ``budget`` uniformly random agents uniformly.

    Not adversarial in the game-theoretic sense; used as the control
    strategy in E8 to separate "any perturbation" from "worst-case
    perturbation".  Victim selection needs one hypergeometric draw per row
    (no batched API), but the uniform refill is a single batched
    multinomial.
    """

    def _act_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if counts.shape[0] == 0:
            return counts
        k = counts.shape[1]
        totals = counts.sum(axis=1)
        moves = np.minimum(self.budget, totals)
        for r in range(counts.shape[0]):
            if moves[r] > 0:
                # Choose victims by color proportionally (hypergeometric =
                # sampling agents without replacement).
                counts[r] -= rng.multivariate_hypergeometric(counts[r], int(moves[r]))
        counts += rng.multinomial(moves, np.full(k, 1.0 / k))
        return counts


@ADVERSARIES.register("revive")
class ReviveAdversary(Adversary):
    """Keeps minority colors alive: feeds the weakest supported-or-dead color.

    Moves agents from the plurality to the globally smallest count; against
    3-majority this maximally delays Lemma 5's final extinction step.
    """

    def _act_many(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if counts.shape[0] == 0:
            return counts
        rows = np.arange(counts.shape[0])
        top = np.argmax(counts, axis=1)
        low = np.argmin(counts, axis=1)
        move = np.where(top != low, np.minimum(self.budget, counts[rows, top]), 0)
        counts[rows, top] -= move
        counts[rows, low] += move
        return counts

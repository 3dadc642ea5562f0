"""Sequential population-protocol engine (the paper's contrast model).

The related work the paper positions against ([2] Angluin-Aspnes-Eisenstat,
[21] Perron-Vasudevan-Vojnovic, [8] Draief-Vojnovic, [3] Babaee-Draief)
lives in the *population model*: at each discrete tick a single ordered
pair of agents (initiator, responder) is drawn u.a.r. and interacts — there
is no synchronous round.  A parallel round corresponds to ~n ticks, which
is how cross-model time comparisons are normalised.

This module implements the model exactly at the counts level: because the
protocols below are anonymous, an interaction's effect depends only on the
(state-of-initiator, state-of-responder) pair, whose distribution is a
simple function of the counts — so each tick is O(1) work and no per-agent
array is needed.

Protocols provided:

* :class:`PairwiseVoter` — initiator copies responder (sequential polling);
* :class:`UndecidedPopulation` — the Angluin et al. 3-state protocol,
  generalised to k colors exactly as in [21]: a colored initiator meeting
  a different color becomes undecided, an undecided initiator adopts the
  responder's color.  The paper notes its multivalued version fails to
  elect the plurality for k ≥ 3 from some Θ(n)-bias starts — which
  :mod:`repro.experiments` can now exhibit against the *parallel*
  undecided-state dynamics.

Use :class:`PopulationProcess` to run to consensus and convert tick counts
into parallel-round equivalents (ticks / n).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PairwiseProtocol",
    "PairwiseVoter",
    "UndecidedPopulation",
    "PopulationProcess",
    "PopulationResult",
]


class PairwiseProtocol(abc.ABC):
    """An anonymous two-agent interaction rule on an extended state vector.

    State convention matches the parallel engines: ``counts`` has one slot
    per color plus (optionally) trailing protocol-specific slots; the
    protocol declares the total slot count for ``k`` colors via
    :meth:`slots`.
    """

    name: str = "pairwise-protocol"

    @abc.abstractmethod
    def slots(self, k: int) -> int:
        """Total state-vector length for ``k`` colors."""

    @abc.abstractmethod
    def initial_state(self, counts: np.ndarray) -> np.ndarray:
        """Embed a k-color count vector into the protocol's state vector."""

    @abc.abstractmethod
    def interact(self, initiator: int, responder: int) -> int:
        """New state of the *initiator* after meeting ``responder``.

        The responder is unchanged (one-way protocols; all the protocols
        the paper's related work analyses are one-way).
        """


class PairwiseVoter(PairwiseProtocol):
    """Sequential polling: the initiator adopts the responder's color."""

    name = "pairwise-voter"

    def slots(self, k: int) -> int:
        return k

    def initial_state(self, counts: np.ndarray) -> np.ndarray:
        return np.asarray(counts, dtype=np.int64).copy()

    def interact(self, initiator: int, responder: int) -> int:
        return responder


class UndecidedPopulation(PairwiseProtocol):
    """Angluin et al.'s third-state protocol, multivalued version of [21].

    Slot ``k`` is the undecided state.  Transitions (initiator only):
    colored ``i`` meets colored ``j != i`` → undecided; undecided meets
    colored ``j`` → ``j``; all other meetings leave the initiator as is.
    """

    name = "undecided-population"

    def slots(self, k: int) -> int:
        return k + 1

    def initial_state(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts, dtype=np.int64)
        return np.concatenate([counts, [0]])

    def interact(self, initiator: int, responder: int) -> int:
        # Slot indices are resolved by the process; the undecided slot is
        # always the last one, flagged by the caller via _undecided_slot.
        undecided = self._undecided_slot
        if initiator == undecided:
            return responder if responder != undecided else undecided
        if responder == undecided:
            return initiator
        if initiator != responder:
            return undecided
        return initiator

    _undecided_slot: int = -1  # set by PopulationProcess before running


@dataclass
class PopulationResult:
    """Outcome of a sequential run."""

    converged: bool
    winner: int | None
    ticks: int
    plurality_color: int
    final_counts: np.ndarray

    @property
    def plurality_won(self) -> bool:
        return self.converged and self.winner == self.plurality_color

    def parallel_rounds(self, n: int) -> float:
        """Tick count normalised to parallel-round equivalents."""
        return self.ticks / n


class PopulationProcess:
    """Exact counts-level simulator of one-way pairwise protocols.

    Each tick draws an ordered pair of *distinct* agents u.a.r.; since the
    protocol is anonymous, only the pair of state-slots matters, and those
    are sampled directly from the counts: the initiator slot ``a`` with
    probability ``c_a / n``, the responder slot ``b`` with probability
    ``c_b / (n-1)`` (minus the initiator, handled exactly).  Uniform draws
    are consumed from pre-generated blocks to amortise RNG overhead.
    """

    _BLOCK = 8192

    def __init__(self, protocol: PairwiseProtocol):
        self.protocol = protocol

    def run(
        self,
        counts: np.ndarray,
        *,
        max_ticks: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> PopulationResult:
        generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        counts = np.asarray(counts, dtype=np.int64)
        k = counts.size
        n = int(counts.sum())
        if n < 2:
            raise ValueError("population protocols need at least two agents")
        slots = self.protocol.slots(k)
        state = self.protocol.initial_state(counts).astype(np.int64)
        if state.size != slots:
            raise RuntimeError("protocol initial_state produced wrong slot count")
        if hasattr(self.protocol, "_undecided_slot"):
            self.protocol._undecided_slot = slots - 1
        plurality_color = int(np.argmax(counts))
        if max_ticks is None:
            max_ticks = 200 * n * max(1, int(np.log(max(n, 3)))) * k

        state_list = state.tolist()  # Python ints: the tick loop is scalar
        ticks = 0
        uniforms = generator.random(self._BLOCK)
        u_pos = 0

        def draw() -> float:
            nonlocal uniforms, u_pos
            if u_pos >= uniforms.size:
                uniforms = generator.random(self._BLOCK)
                u_pos = 0
            v = uniforms[u_pos]
            u_pos += 1
            return float(v)

        def sample_slot(weights: list[int], total: int) -> int:
            x = draw() * total
            acc = 0.0
            for idx, w in enumerate(weights):
                acc += w
                if x < acc:
                    return idx
            return len(weights) - 1

        def colored_mono() -> bool:
            return max(state_list[:k]) == n

        while ticks < max_ticks and not colored_mono():
            a = sample_slot(state_list, n)
            # responder drawn among the other n-1 agents
            state_list[a] -= 1
            b = sample_slot(state_list, n - 1)
            state_list[a] += 1
            new_a = self.protocol.interact(a, b)
            if new_a != a:
                state_list[a] -= 1
                state_list[new_a] += 1
            ticks += 1

        final = np.asarray(state_list[:k], dtype=np.int64)
        converged = bool(final.max() == n)
        return PopulationResult(
            converged=converged,
            winner=int(np.argmax(final)) if converged else None,
            ticks=ticks,
            plurality_color=plurality_color,
            final_counts=final,
        )

"""Configuration distances and trajectory phase analysis.

* :func:`total_variation` — TV distance between configurations viewed as
  distributions over colors;
* :func:`classify_phase` / :func:`phase_segments` / :func:`plurality_phase`
  — decompose a 3-majority trajectory into the three phases of the
  upper-bound proof (Lemma 3: growth to 2n/3; Lemma 4: exponential
  minority decay to ``n - polylog``; Lemma 5: one-shot extinction); E10
  classifies its recorded plurality counts with :func:`plurality_phase`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "total_variation",
    "classify_phase",
    "phase_segments",
    "plurality_phase",
    "PhaseSegment",
    "PHASE_PLURALITY",
    "PHASE_MAJORITY",
    "PHASE_LAST_STEP",
    "PHASE_DONE",
]

PHASE_PLURALITY = "plurality-to-majority"  # c1 <= 2n/3       (Lemma 3)
PHASE_MAJORITY = "majority-to-almost-all"  # 2n/3 < c1 <= n-L (Lemma 4)
PHASE_LAST_STEP = "last-step"  # c1 > n - L                    (Lemma 5)
PHASE_DONE = "monochromatic"


def total_variation(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """TV distance between the color distributions of two configurations."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.sum() <= 0 or b.sum() <= 0:
        raise ValueError("empty configuration")
    pa = a / a.sum()
    pb = b / b.sum()
    if pa.size != pb.size:
        raise ValueError("configurations must have the same number of colors")
    return 0.5 * float(np.abs(pa - pb).sum())


def classify_phase(counts: np.ndarray, last_step_threshold: float | None = None) -> str:
    """Which phase of the Theorem 1 proof a configuration is in.

    ``last_step_threshold`` defaults to ``log(n)^2`` (the paper's
    polylog(n); any fixed power works for the classification).
    """
    c = np.asarray(counts, dtype=np.int64)
    n = int(c.sum())
    if n <= 0:
        raise ValueError("empty configuration")
    return str(plurality_phase(c.max(), n, last_step_threshold))


def plurality_phase(
    plurality: np.ndarray | int, n: int, last_step_threshold: float | None = None
) -> np.ndarray:
    """:func:`classify_phase` of every plurality count ``c1`` in ``plurality``.

    A phase depends on a configuration only through ``c1`` and ``n``, so a
    recorded ``plurality-count`` trace classifies in one pass.
    """
    c1 = np.asarray(plurality)
    if last_step_threshold is None:
        last_step_threshold = np.log(max(n, 3)) ** 2
    return np.select(
        [c1 == n, c1 <= 2 * n / 3, c1 > n - last_step_threshold],
        [PHASE_DONE, PHASE_PLURALITY, PHASE_LAST_STEP],
        PHASE_MAJORITY,
    )


@dataclass
class PhaseSegment:
    """A maximal run of consecutive rounds spent in one phase."""

    phase: str
    start_round: int
    end_round: int  # inclusive

    @property
    def length(self) -> int:
        return self.end_round - self.start_round + 1


def phase_segments(trajectory: np.ndarray, last_step_threshold: float | None = None) -> list[PhaseSegment]:
    """Segment a ``(T, k)`` trajectory into its proof phases, in order."""
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[0] == 0:
        raise ValueError("trajectory must be a non-empty (rounds, k) array")
    segments: list[PhaseSegment] = []
    for t in range(traj.shape[0]):
        phase = classify_phase(traj[t], last_step_threshold)
        if segments and segments[-1].phase == phase:
            segments[-1].end_round = t
        else:
            segments.append(PhaseSegment(phase=phase, start_round=t, end_round=t))
    return segments

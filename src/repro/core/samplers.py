"""Vectorized sampling kernels shared by every dynamics implementation.

Two execution engines are built on these kernels:

* the **exact counts-level engine**: on the clique, agents update i.i.d.
  conditioned on the current configuration, so the next configuration is
  exactly ``Multinomial(n, p)`` for the per-agent color law ``p``
  (:func:`multinomial_step_batch`, one broadcasting NumPy call for a
  whole replica batch);

* the **agent-level engine**, the ground truth the laws are
  cross-validated against: draw ``h`` categorical samples per agent and
  reduce each agent's row with the dynamics' per-agent rule
  (:func:`batched_agent_step`; e.g. :func:`row_plurality`, uniform
  tie-breaking).

Per the HPC guides the hot paths are loop-free; the only Python-level loop
is row chunking to bound the transient memory of the one-hot count matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "multinomial_step_batch",
    "batched_agent_step",
    "equal_totals",
    "row_plurality",
    "row_counts_dense",
]

#: cells allowed in a transient (rows x k) one-hot count block (~256 MiB of
#: int64 at the default); chunking keeps peak memory flat for any n.
_DENSE_BLOCK_CELLS = 32 * 1024 * 1024

#: cells per replica-chunk sample block in the batched agent kernels
#: (~32 MiB of int64 per transient — a few live at once across the draw,
#: searchsorted and reduction, so the peak stays within ~100 MiB, the same
#: order as the per-replica path's row_plurality histogram blocks).
_SAMPLE_BLOCK_CELLS = 4 * 1024 * 1024


def multinomial_step_batch(
    n: int | np.ndarray, pvals: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Batched exact update: row ``r`` of the result is ``Multinomial(n_r, pvals[r])``.

    ``pvals`` has shape ``(R, k)``; ``n`` is a scalar or length-R vector.
    This is how replica ensembles advance in lock-step with one NumPy call
    (a single configuration is the one-row batch).  Each row must be a
    probability vector up to a small tolerance, checked with two
    reductions over the batch (row sums and the smallest entry); rows are
    then renormalised so the sampler never sees a sum > 1 from round-off.
    The clip and re-sum run only when some entry is negative, so the
    doubles handed to NumPy are the clipped, renormalised rows either way.
    """
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"pvals must be 2-D, got shape {p.shape}")
    sums = p.sum(axis=1)
    low = p.min(initial=0.0)
    # ``not <=`` also rejects NaN and infinite row sums.
    if not np.abs(sums - 1.0).max(initial=0.0) <= 1e-9 or low < -1e-12:
        raise ValueError("pvals rows are not probability vectors")
    if low < 0.0:
        p = np.clip(p, 0.0, None)
        sums = p.sum(axis=1)
    return rng.multinomial(n, p / sums[:, None])


def equal_totals(counts: np.ndarray) -> bool:
    """True when every replica row carries the same positive agent mass.

    The batched agent-level kernels draw one flattened block per replica
    chunk, which needs a common ``n``.  The ensemble runners satisfy this
    by construction (mass is conserved per replica); direct ``step_many``
    callers with ragged totals fall back to the per-row path.
    """
    totals = np.asarray(counts).sum(axis=1)
    return bool(totals.size) and int(totals[0]) > 0 and bool((totals == totals[0]).all())


def _categorical_block(
    cdf: np.ndarray, n: int, h: int, rng: np.random.Generator
) -> np.ndarray:
    """``(rows, n, h)`` samples for one chunk of per-row CDFs.

    One uniform draw and one ``searchsorted`` over the *offset-flattened*
    CDFs: row ``r``'s CDF and queries are both shifted by ``r·n``, so the
    concatenated CDF stays non-decreasing and every query lands inside its
    own row's segment.  Uniform integers in ``[0, n)`` against the integer
    CDF: exact, with no floating-point probability round-off.
    """
    rows, k = cdf.shape
    offsets = np.arange(rows, dtype=np.int64) * n
    flat_cdf = (cdf + offsets[:, None]).ravel()
    u = rng.integers(0, n, size=(rows, n, h), dtype=np.int64)
    u += offsets[:, None, None]
    idx = np.searchsorted(flat_cdf, u.ravel(), side="right").reshape(rows, n, h)
    idx -= (np.arange(rows, dtype=np.int64) * k)[:, None, None]
    return idx


def _checked_batch_cdf(counts: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 2:
        raise ValueError("counts must be an (R, k) batch")
    if h <= 0:
        raise ValueError(f"need h >= 1, got h={h}")
    if np.any(c < 0):
        raise ValueError("counts must be non-negative")
    if c.shape[0] and not equal_totals(c):
        raise ValueError("all rows must share the same positive total")
    n = int(c[0].sum()) if c.shape[0] else 0
    return np.cumsum(c, axis=1), n


def batched_agent_step(
    counts: np.ndarray,
    h: int,
    rng: np.random.Generator,
    choose,
) -> np.ndarray:
    """One agent-level round for a whole replica batch, bounded memory.

    For each replica chunk: draw the ``(rows, n, h)`` sample block, reduce
    it with ``choose(samples_2d, rng) -> colors`` (``samples_2d`` is the
    chunk flattened to ``(rows·n, h)``; ``choose`` is the per-agent rule —
    majority, plurality, an arbitrary 3-input ``f``), histogram the chosen
    colors per replica, and discard the block.  Only the ``(R, k)`` result
    and one chunk's transients (:data:`_SAMPLE_BLOCK_CELLS` cells each,
    ~32 MiB) are ever resident, so peak memory stays flat in the replica
    count — the same order as the per-replica loop this replaces — while
    keeping the loop-free draws.  All rows must share the same positive
    total (the ensemble invariant); ragged callers fall back to per-row
    stepping.
    """
    cdf, n = _checked_batch_cdf(counts, h)
    replicas, k = cdf.shape
    out = np.empty((replicas, k), dtype=np.int64)
    chunk = max(1, _SAMPLE_BLOCK_CELLS // max(n * h, 1))
    for start in range(0, replicas, chunk):
        stop = min(start + chunk, replicas)
        samples = _categorical_block(cdf[start:stop], n, h, rng)
        colors = choose(samples.reshape(-1, h), rng)
        out[start:stop] = row_counts_dense(colors.reshape(stop - start, n), k)
    return out


def row_counts_dense(samples: np.ndarray, k: int) -> np.ndarray:
    """Per-row color histogram of an ``(R, h)`` sample matrix → ``(R, k)``.

    Uses the flattened-bincount trick: offset row ``r``'s samples by ``r*k``
    and histogram once.  Caller is responsible for chunking if ``R*k`` is
    large (see :func:`row_plurality`).
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be (rows, h)")
    rows = samples.shape[0]
    if rows == 0:
        return np.zeros((0, k), dtype=np.int64)
    offsets = np.arange(rows, dtype=np.int64)[:, None] * k
    flat = (samples + offsets).ravel()
    return np.bincount(flat, minlength=rows * k).reshape(rows, k)


def _plurality_of_block(block: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row-wise plurality with uniform tie-breaking for one chunk."""
    counts = row_counts_dense(block, k)
    # A uniform jitter in [0, 0.5) cannot reorder distinct integer counts but
    # picks uniformly at random among the colors sharing the maximum; colors
    # with count 0 can never win because every row has h >= 1 samples.
    jitter = rng.random(counts.shape) * 0.5
    return np.argmax(counts + jitter, axis=1).astype(np.int64)


def row_plurality(samples: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plurality color of each row of an ``(R, h)`` sample matrix.

    Ties among maximal colors are broken uniformly at random, matching the
    paper's h-plurality rule.  The reduction runs in row chunks so that the
    transient ``(chunk, k)`` histogram stays within a fixed memory budget.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be (rows, h)")
    rows = samples.shape[0]
    if rows == 0:
        return np.zeros(0, dtype=np.int64)
    if np.any(samples < 0) or np.any(samples >= k):
        raise ValueError("sample values out of range [0, k)")
    chunk = max(1, _DENSE_BLOCK_CELLS // max(k, 1))
    if rows <= chunk:
        return _plurality_of_block(samples, k, rng)
    out = np.empty(rows, dtype=np.int64)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        out[start:stop] = _plurality_of_block(samples[start:stop], k, rng)
    return out

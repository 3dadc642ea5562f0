"""Active-support compaction for the sparse ensemble engine.

The paper's large-``k`` regimes (``k = n^ε``) coalesce fast: after a short
prefix all but a vanishing set of colors are extinct, yet a dense engine
keeps paying O(k) per round for the lifetime of every ensemble.  The
sparse engine in :func:`repro.core.process.run_ensemble` instead tracks
the ensemble's *union live support* — the sorted original color indices
with a nonzero count in **any** replica — and steps the replicas on the
``(R, |support|)`` compacted columns, scattering back to dense ``k`` only
at result and trace boundaries.

Two invariants make this exact rather than approximate:

* the support map is kept **sorted ascending**, so compaction preserves
  the total order of color indices — order-sensitive laws (the
  ``low``/``high`` pair choices and rank patterns of
  :class:`~repro.core.threeinput.ThreeInputRule`, the median dynamics)
  evaluate identically on the compacted axis;
* every dynamics eligible for the sparse engine is **support-closed**
  (:attr:`~repro.core.dynamics.Dynamics.support_closed`): a color with
  count zero is assigned probability zero by the law (and can never be
  sampled by an agent-level engine), so dropped columns would have stayed
  exactly zero — scattering the compacted columns back restores ``c``
  losslessly at every round, not just at t = 0.

The compaction *lifecycle* (hysteresis, re-compaction, result scatter)
lives in :mod:`repro.core.process`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_counts"]


def scatter_counts(compacted: np.ndarray, support: np.ndarray, k: int) -> np.ndarray:
    """Scatter compacted columns back to dense ``k``: the inverse of
    ``counts[..., support]`` for support-closed processes (dropped columns
    are exactly zero).  Accepts ``(s,)`` or ``(R, s)``; trailing shape
    beyond the color axis is not supported.
    """
    compacted = np.asarray(compacted)
    support = np.asarray(support, dtype=np.int64)
    if compacted.shape[-1] != support.size:
        raise ValueError(
            f"compacted width {compacted.shape[-1]} does not match "
            f"support size {support.size}"
        )
    if support.size and (support[0] < 0 or support[-1] >= k):
        raise ValueError(f"support indices out of range [0, {k})")
    dense = np.zeros(compacted.shape[:-1] + (k,), dtype=compacted.dtype)
    dense[..., support] = compacted
    return dense

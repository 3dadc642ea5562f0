"""Color configurations: the state space of clique plurality dynamics.

On the clique, every dynamics studied by the paper is *anonymous*: its law
depends on the current coloring only through the vector of color counts
``c = (c_1, ..., c_k)`` with ``sum(c) = n``.  :class:`Configuration` wraps
that vector with the paper's derived quantities — the plurality color, the
additive bias ``s(c) = c_(1) - c_(2)`` (difference between the two largest
counts), monochromaticity — plus the factory functions used by the
experiment workloads.

The class is immutable; dynamics return new count vectors.  The raw counts
are exposed as a read-only ``numpy.ndarray`` so the hot path never copies.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Configuration"]

_COUNT_DTYPE = np.int64


def _as_counts(values: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"configuration counts must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("configuration needs at least one color")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded, atol=1e-9):
            raise ValueError("configuration counts must be integers")
        arr = rounded
    arr = arr.astype(_COUNT_DTYPE, copy=True)
    if np.any(arr < 0):
        raise ValueError("configuration counts must be non-negative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Configuration:
    """An immutable k-color configuration (``k-cd`` in the paper).

    Parameters
    ----------
    counts:
        Length-``k`` vector of non-negative integers; ``counts[j]`` is the
        number of agents currently supporting color ``j``.

    Notes
    -----
    Unlike the paper's convention, colors are *not* assumed sorted; the
    plurality color is whichever entry is largest (ties resolved to the
    smallest index, purely for reporting).  All derived quantities
    (:attr:`bias`, :attr:`plurality_color`, ...) handle the unsorted case.
    """

    counts: np.ndarray = field()

    def __init__(self, counts: Sequence[int] | np.ndarray):
        object.__setattr__(self, "counts", _as_counts(counts))

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        """Total number of agents."""
        return int(self.counts.sum())

    @property
    def k(self) -> int:
        """Number of color slots (including extinct colors)."""
        return int(self.counts.size)

    def sorted_counts(self) -> np.ndarray:
        """Counts in non-increasing order (the paper's canonical form)."""
        return np.sort(self.counts)[::-1].copy()

    # -- paper quantities ---------------------------------------------------

    @property
    def plurality_color(self) -> int:
        """Index of the (a) largest color; smallest index on ties."""
        return int(np.argmax(self.counts))

    @property
    def plurality_count(self) -> int:
        """``c_(1)``: the largest count."""
        return int(self.counts.max())

    @property
    def runner_up_count(self) -> int:
        """``c_(2)``: the second-largest count (0 when k == 1)."""
        if self.k == 1:
            return 0
        top = np.partition(self.counts, self.k - 2)
        return int(top[self.k - 2])

    @property
    def bias(self) -> int:
        """Additive bias ``s(c) = c_(1) - c_(2)`` of the paper."""
        return self.plurality_count - self.runner_up_count

    def fractions(self) -> np.ndarray:
        """Counts normalised to a probability vector ``c / n``."""
        return self.counts / self.n

    def monochromatic_distance(self) -> float:
        """``md(c) = sum_i (c_i / c_max)^2`` (Becchetti et al., SODA'15).

        Governs the convergence time of the undecided-state dynamics; used
        by experiment E9 to build the exponential-gap workloads.
        """
        cmax = self.plurality_count
        if cmax == 0:
            raise ValueError("monochromatic distance undefined for empty configuration")
        f = self.counts / cmax
        return float(np.dot(f, f))

    # -- manipulation --------------------------------------------------------

    def permuted(self, perm: Sequence[int] | np.ndarray) -> "Configuration":
        """Apply a color permutation: ``new[j] = old[perm[j]]``."""
        perm = np.asarray(perm, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.k)):
            raise ValueError("perm must be a permutation of range(k)")
        return Configuration(self.counts[perm])

    # -- factories ------------------------------------------------------------

    @staticmethod
    def monochromatic(n: int, k: int, color: int = 0) -> "Configuration":
        """All ``n`` agents on one color."""
        if not 0 <= color < k:
            raise ValueError(f"color {color} out of range for k={k}")
        counts = np.zeros(k, dtype=_COUNT_DTYPE)
        counts[color] = n
        return Configuration(counts)

    @staticmethod
    def balanced(n: int, k: int) -> "Configuration":
        """As even a split of ``n`` agents over ``k`` colors as possible.

        The first ``n mod k`` colors receive one extra agent.
        """
        if k <= 0 or n < 0:
            raise ValueError("need k >= 1 and n >= 0")
        base, extra = divmod(n, k)
        counts = np.full(k, base, dtype=_COUNT_DTYPE)
        counts[:extra] += 1
        return Configuration(counts)

    @staticmethod
    def biased(n: int, k: int, bias: int, plurality: int = 0) -> "Configuration":
        """Balanced split of ``n - bias`` plus ``bias`` extra on one color.

        This is the paper's canonical ``s``-biased initial configuration:
        rivals get at most ``x = ceil((n - s)/k)`` agents, the strongest
        rival exactly ``x``, and the plurality ``x + s``.  The resulting
        ``s(c)`` equals ``bias`` exactly whenever that is arithmetically
        possible (for ``k = 2``, parity forces ``s ≡ n (mod 2)``; an
        infeasible request is rounded up to the next achievable bias).
        """
        if not 0 <= bias <= n:
            raise ValueError(f"bias must be in [0, n], got {bias}")
        if not 0 <= plurality < k:
            raise ValueError(f"plurality {plurality} out of range for k={k}")
        if k == 1:
            return Configuration.monochromatic(n, 1)
        x = -((-(n - bias)) // k)  # ceil((n - bias) / k)
        c1 = min(x + bias, n)
        rest = n - c1
        # Rival i takes x, or what the i rivals before it left.  (np.clip
        # and np.insert would cost more than the old loop at small k.)
        left = rest - x * np.arange(k - 1, dtype=_COUNT_DTYPE)
        rivals = np.minimum(np.maximum(left, 0), x)
        return Configuration(np.concatenate((rivals[:plurality], [c1], rivals[plurality:])))

    @staticmethod
    def two_color(n: int, majority_fraction: float = 0.5, bias: int | None = None) -> "Configuration":
        """Binary configuration, by fraction or by additive bias."""
        if bias is not None:
            if (n + bias) % 2 != 0:
                bias += 1
            c1 = (n + bias) // 2
        else:
            c1 = int(round(n * majority_fraction))
        c1 = min(max(c1, 0), n)
        return Configuration(np.array([c1, n - c1], dtype=_COUNT_DTYPE))

    @staticmethod
    def from_fractions(n: int, fractions: Sequence[float]) -> "Configuration":
        """Largest-remainder rounding of a fraction vector to counts."""
        f = np.asarray(fractions, dtype=float)
        if np.any(f < 0):
            raise ValueError("fractions must be non-negative")
        total = f.sum()
        if total <= 0:
            raise ValueError("fractions must not all be zero")
        raw = f / total * n
        counts = np.floor(raw).astype(_COUNT_DTYPE)
        remainder = int(n - counts.sum())
        if remainder > 0:
            frac_part = raw - counts
            top = np.argsort(frac_part)[::-1][:remainder]
            counts[top] += 1
        return Configuration(counts)

    @staticmethod
    def random(n: int, k: int, rng: np.random.Generator) -> "Configuration":
        """Uniform multinomial split of ``n`` agents over ``k`` colors."""
        counts = rng.multinomial(n, np.full(k, 1.0 / k))
        return Configuration(counts)

    # -- dunder -----------------------------------------------------------------

    def __iter__(self):
        return iter(self.counts.tolist())

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, j: int) -> int:
        return int(self.counts[j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.counts.shape == other.counts.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash(self.counts.tobytes())

    def __repr__(self) -> str:
        inner = ", ".join(str(int(x)) for x in self.counts[:12])
        if self.k > 12:
            inner += f", ... ({self.k} colors)"
        return f"Configuration([{inner}], n={self.n}, bias={self.bias})"

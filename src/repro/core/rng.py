"""Random-stream discipline for reproducible parallel experiments.

All stochastic code in :mod:`repro` receives a :class:`numpy.random.Generator`
explicitly; nothing reads global NumPy state.  Experiments that fan out over
replicas or parameter points obtain *statistically independent* child streams
via :func:`spawn_streams`, which wraps NumPy's ``SeedSequence.spawn``
machinery.  This is the standard HPC practice: one root seed per experiment,
one spawned stream per unit of work, so results are reproducible regardless
of execution order or batching.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

__all__ = [
    "make_rng",
    "spawn_streams",
    "derive_seed",
]


def make_rng(seed: int | np.random.Generator | np.random.SeedSequence | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned unchanged so
    callers can thread one stream through a pipeline), a
    :class:`~numpy.random.SeedSequence`, or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(
    seed: int | np.random.Generator | np.random.SeedSequence | None, n: int
) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from a single root seed.

    The children are derived through ``SeedSequence.spawn`` so they are
    independent of each other *and* of the parent stream; spawning the same
    root twice yields identical children.  An existing
    :class:`~numpy.random.Generator` spawns children from its own seed
    sequence (advancing its spawn counter), so threading one generator
    through a pipeline stays deterministic end to end.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} streams")
    if isinstance(seed, np.random.Generator):
        try:
            return list(seed.spawn(n))
        except AttributeError as exc:  # pragma: no cover — numpy < 1.25
            raise TypeError(
                "spawning child streams from a Generator needs numpy >= 1.25; "
                "pass an int seed or a SeedSequence instead"
            ) from exc
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def derive_seed(root_seed: int | None, *path: int | str) -> np.random.SeedSequence:
    """Derive a named sub-seed deterministically from a root seed.

    ``path`` components (experiment id, sweep index, replica index, ...) are
    hashed into the entropy pool, so distinct paths give independent streams
    and re-running with the same path reproduces the stream exactly.

    Each component is fed to the hash with a type tag and a length prefix,
    so the encoding is injective: ``("ab",)`` vs ``("a", "b")``, ``("a",)``
    vs ``(97,)`` and ``-1`` vs ``0xFFFFFFFF`` all map to distinct entropy
    (the undelimited concatenation used previously collided on all three).
    """
    hasher = hashlib.sha256()
    for part in path:
        if isinstance(part, str):
            tag, data = b"s", part.encode("utf-8")
        elif isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            tag, data = b"i", str(int(part)).encode("ascii")
        else:
            raise TypeError(f"path components must be int or str, got {part!r}")
        hasher.update(tag)
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)
    digest = hasher.digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, len(digest), 4)]
    entropy: Sequence[int] = [root_seed if root_seed is not None else 0, *words]
    return np.random.SeedSequence(entropy)

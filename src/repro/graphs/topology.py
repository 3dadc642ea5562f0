"""Network topologies packed for vectorized neighbor sampling.

The paper's model is the clique, where anonymous counts suffice.  On a
general graph each agent samples among *its own* neighbors, so the
simulator needs per-agent neighborhoods.  :class:`Topology` stores them in
CSR form (``offsets``/``neighbors`` arrays) so that drawing ``h`` uniform
neighbor samples for *all* agents is two vectorized gathers — no Python
loop over nodes.

Per the paper's convention the sampling pool of an agent *includes the
agent itself*; :meth:`Topology.from_edges` therefore adds a self-loop to
every node by default (``include_self=True``).

The generators need only numpy and the standard library.  The
deterministic families build their edge arrays in numpy; the random ones
port networkx 3.x's ``random_regular_graph`` and ``fast_gnp_random_graph``
onto :class:`random.Random`, drawing in networkx's order.  So every
generator's CSR is byte-identical to packing the graph networkx builds for
the same arguments; the tests check this against networkx, which is only a
test-side reference.  :meth:`Topology.from_networkx` remains the bridge
for user graphs and imports networkx only when it is called.

Every generator is also registered in
:data:`~repro.core.registry.TOPOLOGIES` under the uniform scenario-facing
signature ``fn(n, **params) -> Topology`` (``repro topologies`` lists
them), which is how a :class:`~repro.scenario.ScenarioSpec`'s ``topology``
/ ``topology_params`` fields resolve.  The randomised generators take an
explicit ``seed`` parameter (default 0) so a spec's topology is a pure
function of its parameters — the property the content-addressed result
cache relies on.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

from ..core.registry import TOPOLOGIES, checked_int

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "Topology",
    "clique",
    "cycle",
    "torus",
    "random_regular",
    "erdos_renyi",
    "complete_bipartite",
    "barbell",
]


class Topology:
    """CSR-packed undirected graph with per-node sampling pools."""

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray, name: str = "graph"):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.name = name
        if self.offsets.ndim != 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be 1-D and start at 0")
        if self.offsets[-1] != self.neighbors.size:
            raise ValueError("offsets[-1] must equal len(neighbors)")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("every node needs a non-empty sampling pool")
        self.degrees = np.diff(self.offsets)
        self._regular = bool(np.all(self.degrees == self.degrees[0]))

    @property
    def n(self) -> int:
        return int(self.offsets.size - 1)

    @classmethod
    def from_edges(cls, n: int, edges, include_self: bool = True, name: str = "graph") -> "Topology":
        """Pack an undirected edge list over nodes ``0..n-1`` into CSR.

        ``edges`` is any ``(m, 2)`` integer array-like.  Both directions of
        every edge enter the pools and, with ``include_self``, every node
        joins its own.  Each ``(node, neighbor)`` pair becomes the key
        ``node * n + neighbor``; the sorted distinct keys are the CSR in
        row order, so each pool comes out ascending and repeated edges or
        self-loops collapse the way they do in ``nx.Graph``.  (The keys are
        deduplicated by hand: ``np.unique`` is far slower than a sort.)
        """
        n = int(n)
        if n < 1:
            raise ValueError("empty graph")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        u, v = edges[:, 0], edges[:, 1]
        parts = [u * n + v, v * n + u]
        if include_self:
            parts.append(np.arange(n, dtype=np.int64) * (n + 1))
        keys = np.sort(np.concatenate(parts))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        nodes = keys // n
        degrees = np.bincount(nodes, minlength=n)
        if degrees.min() == 0:
            raise ValueError(f"node {int(np.argmin(degrees))} has an empty sampling pool")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(offsets, keys - nodes * n, name=name)

    @classmethod
    def from_networkx(cls, graph: nx.Graph, include_self: bool = True, name: str | None = None) -> "Topology":
        """Pack a networkx graph; nodes must be 0..n-1 or are relabelled."""
        import networkx as nx

        if graph.number_of_nodes() == 0:
            raise ValueError("empty graph")
        graph = nx.convert_node_labels_to_integers(graph, ordering="sorted")
        return cls.from_edges(
            graph.number_of_nodes(),
            list(graph.edges()),
            include_self=include_self,
            name=name or f"nx-{type(graph).__name__}",
        )

    def sample_neighbors(self, h: int, rng: np.random.Generator) -> np.ndarray:
        """``(n, h)`` matrix: ``h`` uniform (with-replacement) neighbor picks per node.

        Draws are bounded-integer (`Generator.integers`, exclusive high),
        so each pick is exactly uniform over the node's pool and the pool
        index can never reach the row degree — unlike the float-scaling
        ``(u * deg).astype(int64)`` idiom this replaced, which was both
        slightly biased and able to round up to ``deg``.
        """
        if h < 1:
            raise ValueError("h must be >= 1")
        start = self.offsets[:-1]
        if self._regular:
            # Scalar bound: one Lemire rejection stream instead of the
            # slower per-element broadcast-bound path.
            idx = rng.integers(0, int(self.degrees[0]), size=(self.n, h), dtype=np.int64)
        else:
            idx = rng.integers(0, self.degrees[:, None], size=(self.n, h), dtype=np.int64)
        np.add(idx, start[:, None], out=idx)
        return self.neighbors.take(idx)

    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, n={self.n}, edges~{self.neighbors.size // 2})"


def clique(n: int) -> Topology:
    """Complete graph with self-loops — the paper's model."""
    if n < 1:
        raise ValueError("clique needs n >= 1")
    offsets = np.arange(n + 1, dtype=np.int64) * n
    neighbors = np.tile(np.arange(n, dtype=np.int64), n)
    return Topology(offsets, neighbors, name=f"clique-{n}")


def cycle(n: int) -> Topology:
    """Ring ``i -- i+1 (mod n)``; ``cycle(1)`` is one self-loop, ``cycle(2)`` one edge."""
    nodes = np.arange(n, dtype=np.int64)
    return Topology.from_edges(n, np.column_stack((nodes, (nodes + 1) % n)), name=f"cycle-{n}")


def torus(rows: int, cols: int) -> Topology:
    """Periodic grid; node ``(i, j)`` is ``i * cols + j``, as networkx's sorted labels.

    Every node links to its right and lower neighbor, wrapping around.  On
    a side of length 2 the wrap repeats the inner edge and on a side of
    length 1 it is the node's own self-loop, so the collapse in
    :meth:`Topology.from_edges` gives networkx's rule that a side wraps
    only when it is longer than 2.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"torus needs rows, cols >= 1, got {rows}x{cols}")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.roll(ids, -1, axis=1)
    down = np.roll(ids, -1, axis=0)
    edges = np.column_stack((np.tile(ids.ravel(), 2), np.concatenate((right.ravel(), down.ravel()))))
    return Topology.from_edges(rows * cols, edges, name=f"torus-{rows}x{cols}")


def random_regular(n: int, d: int, seed: int | None = None) -> Topology:
    """Random ``d``-regular graph: networkx 3.x's ``random_regular_graph``, ported.

    The pairing model of Steger and Wormald: shuffle the ``n * d`` stubs,
    pair them in order and keep every pair that is neither a loop nor a
    repeat, then shuffle and pair the leftovers again.  An attempt whose
    leftovers can no longer form a new edge starts over.  The draws come
    from ``random.Random(seed)`` (the module-level generator when ``seed``
    is None) in networkx's order, so the graph is networkx's for that seed.
    That is why the stubs go through :func:`_shuffle` and not a faster or
    vectorised permutation: any other draw order gives another graph, and
    so other results under the same spec and cache key.

    An edge ``s1 < s2`` is kept as the int key ``s1 * n + s2``, which hashes
    and compares faster than a tuple, and the CSR is unpacked from the keys.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError("the 0 <= d < n inequality must be satisfied")
    rng = random if seed is None else random.Random(seed)
    edges = None if d else set()  # d = 0: the empty graph, no draws
    while edges is None:
        edges = _pair_stubs(n, d, rng.getrandbits)
    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    return Topology.from_edges(n, np.column_stack(np.divmod(keys, n)), name=f"rr-{d}-{n}")


def _pair_stubs(n: int, d: int, getrandbits) -> set | None:
    """One attempt of the pairing model: its edge keys, or None if it failed."""
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        # Insertion-ordered: the leftover stubs are re-listed in the order
        # their nodes first failed, which fixes what the next shuffle sees.
        leftover = defaultdict(int)
        _shuffle(stubs, getrandbits)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            if s1 > s2:
                s1, s2 = s2, s1
            key = s1 * n + s2
            if s1 != s2 and key not in edges:
                edges.add(key)
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if not _suitable(edges, leftover, n):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle ``x`` in place exactly as ``random.Random.shuffle`` does.

    CPython's shuffle swaps ``x[i]`` with ``x[_randbelow(i + 1)]`` for ``i``
    from the top down, and ``_randbelow(m)`` draws ``getrandbits(m.bit_length())``
    until the draw is below ``m``.  Here that call is inlined, and the bit
    length is computed once for each run of ``i`` that shares it.  The words
    drawn, and so the permutation and the generator's state afterwards, are
    the stock shuffle's: :func:`random_regular` must draw as networkx does
    to build networkx's graph.  The tests check this against the stock
    shuffle at every length up to 130, so a CPython release that changed
    ``_randbelow`` would fail there before it moved a graph.
    """
    top = len(x) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        bottom = (1 << (bits - 1)) - 1  # the least i with (i + 1).bit_length() == bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            x[i], x[j] = x[j], x[i]
        top = bottom - 1


def _suitable(edges: set, leftover: dict, n: int) -> bool:
    """networkx's check that the leftover stubs can still form a new edge.

    Kept verbatim but for the int keys, including the swap that rebinds
    ``s1`` inside the inner loop: it decides when an attempt restarts, and
    so which draws follow.
    """
    if not leftover:
        return True
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 * n + s2 not in edges:
                return True
    return False


def erdos_renyi(n: int, p: float, seed: int | None = None) -> Topology:
    """G(n, p): networkx 3.x's ``fast_gnp_random_graph``, ported.

    Batagelj and Brandes' geometric skipping walks the pairs ``(v, w)``,
    ``w < v``, in order, one ``random()`` draw per skip from
    ``random.Random(seed)`` (the module-level generator when ``seed`` is
    None).  It takes logarithms with ``math.log``, as networkx does, so
    every skip ``int(lr / lp)`` sees the same doubles.  Isolated nodes keep
    a self-loop-only pool.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erdos-renyi needs 0 <= p <= 1, got p={p}")
    name = f"gnp-{n}-{p}"
    if p >= 1:
        return Topology.from_edges(n, np.column_stack(np.triu_indices(n, 1)), name=name)
    edges = []
    if p > 0:
        rng = random if seed is None else random.Random(seed)
        lp = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            lr = math.log(1.0 - rng.random())
            w = w + 1 + int(lr / lp)
            while w >= v and v < n:
                w = w - v
                v = v + 1
            if v < n:
                edges.append((v, w))
    return Topology.from_edges(n, _pairs_array(edges), name=name)


def _pairs_array(pairs) -> np.ndarray:
    """``(m, 2)`` int64 array of ``(u, v)`` tuples, without ``np.asarray``'s per-tuple cost."""
    flat = itertools.chain.from_iterable(pairs)
    return np.fromiter(flat, dtype=np.int64, count=2 * len(pairs)).reshape(-1, 2)


def complete_bipartite(a: int, b: int) -> Topology:
    """K_{a,b}: nodes ``0..a-1`` on one side, ``a..a+b-1`` on the other."""
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return Topology.from_edges(a + b, np.column_stack((left, right)), name=f"kbb-{a}x{b}")


def barbell(m: int, path: int = 0) -> Topology:
    """Two ``m``-cliques joined by a ``path``-node path, numbered between the bells.

    Nodes ``0..m-1`` form the left bell, ``m..m+path-1`` the path and the
    rest the right bell; the chain ``m-1, m, ..., m+path`` joins them.
    """
    if m < 2 or path < 0:
        raise ValueError(f"barbell needs m >= 2 and path >= 0, got m={m}, path={path}")
    bell = np.column_stack(np.triu_indices(m, 1))
    chain = np.arange(m - 1, m + path + 1, dtype=np.int64)
    edges = np.concatenate((bell, np.column_stack((chain[:-1], chain[1:])), bell + m + path))
    return Topology.from_edges(2 * m + path, edges, name=f"barbell-{m}-{path}")


# -- scenario-facing registrations ------------------------------------------
#
# Uniform signature fn(n, **params) -> Topology, with n supplied by the
# spec.  Parameter defaults are chosen so that `topology_params={}` is
# always valid, and randomised generators key their graph on an explicit
# integer `seed` parameter — part of the spec, hence of the cache key.


def _near_square(n: int) -> tuple[int, int]:
    """Largest divisor pair (rows, cols) with rows <= cols, rows maximal."""
    rows = int(np.sqrt(n))
    while rows > 1 and n % rows:
        rows -= 1
    return rows, n // rows


@TOPOLOGIES.register("clique", summary="complete graph with self-loops (the paper's model)")
def _topology_clique(n: int) -> Topology:
    return clique(n)


@TOPOLOGIES.register("cycle", summary="ring of n nodes (diameter n/2)")
def _topology_cycle(n: int) -> Topology:
    return cycle(n)


@TOPOLOGIES.register("torus", summary="periodic rows x cols grid (near-square by default)")
def _topology_torus(n: int, rows: int | None = None, cols: int | None = None) -> Topology:
    rows = None if rows is None else checked_int("rows", rows, 1)
    cols = None if cols is None else checked_int("cols", cols, 1)
    if rows is None and cols is None:
        rows, cols = _near_square(n)
    elif rows is None:
        rows = n // cols
    elif cols is None:
        cols = n // rows
    if rows < 1 or cols < 1 or rows * cols != n:
        raise ValueError(f"torus needs rows*cols == n, got {rows}x{cols} != {n}")
    return torus(rows, cols)


@TOPOLOGIES.register("random-regular", summary="uniform random d-regular graph (expander w.h.p.)")
def _topology_random_regular(n: int, d: int = 8, seed: int = 0) -> Topology:
    return random_regular(n, checked_int("d", d, 0), seed=checked_int("seed", seed))


@TOPOLOGIES.register("erdos-renyi", summary="G(n, p); p defaults to 2 ln(n)/n, near the connectivity threshold")
def _topology_erdos_renyi(n: int, p: float | None = None, seed: int = 0) -> Topology:
    if p is None:
        p = min(1.0, 2.0 * np.log(max(n, 2)) / n)
    return erdos_renyi(n, float(p), seed=checked_int("seed", seed))


@TOPOLOGIES.register("complete-bipartite", summary="complete bipartite K_{a,n-a} (a = n//2 by default)")
def _topology_complete_bipartite(n: int, a: int | None = None) -> Topology:
    a = n // 2 if a is None else checked_int("a", a)
    if not 0 < a < n:
        raise ValueError(f"complete-bipartite needs 0 < a < n, got a={a}, n={n}")
    return complete_bipartite(a, n - a)


@TOPOLOGIES.register("barbell", summary="two m-cliques joined by a path (worst-case bottleneck)")
def _topology_barbell(n: int, path: int = 0) -> Topology:
    path = checked_int("path", path)
    body = n - path
    if path < 0 or body < 6 or body % 2:
        raise ValueError(
            f"barbell needs n - path even and >= 6 (two cliques of >= 3), got n={n}, path={path}"
        )
    return barbell(body // 2, path)

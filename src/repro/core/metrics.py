"""Pluggable observation layer: metrics, record specs and columnar traces.

Every experimental claim of the paper is a statement about *trajectory
statistics* — how the bias drifts, when the plurality fraction crosses a
threshold, how fast minority colors die.  This module makes observation
declarative data, the same move :mod:`repro.scenario` made for scenarios:

* a :class:`Metric` is a pure, vectorized function of the color counts
  (never of the RNG — observing a run cannot perturb it), registered by
  name in :data:`repro.core.registry.METRICS` (``repro metrics`` lists
  them);
* a :class:`RecordSpec` names which metrics to record and at what cadence
  (``every``-round thinning), and round-trips through plain JSON — it is
  the value of the ``record`` field of a
  :class:`~repro.scenario.ScenarioSpec`;
* a :class:`TraceSet` is the columnar result: one ndarray per metric of
  shape ``(replicas, T, *metric shape)``, recorded by both
  :func:`~repro.core.process.run_process` and the batched
  :func:`~repro.core.process.run_ensemble` (vectorized across replicas in
  the counts engine).

Built-in metrics
----------------
==================  =======  ========  =========================================
name                dtype    shape     value per recorded round
==================  =======  ========  =========================================
plurality-count     int64    scalar    ``max_j c_j``
plurality-fraction  float64  scalar    ``max_j c_j / n``
bias                int64    scalar    additive bias ``s(c) = c_(1) - c_(2)``
support-size        int64    scalar    number of colors with ``c_j > 0``
entropy             float64  scalar    Shannon entropy of ``c / n`` (nats)
tv-monochromatic    float64  scalar    TV distance to nearest monochromatic
                                       configuration, ``(n - max_j c_j) / n``
counts              int64    ``(k,)``  full count-vector snapshot
==================  =======  ========  =========================================

Determinism contract: :meth:`Metric.compute` *is* the vectorized
:meth:`Metric.compute_many` applied to a single row, so the batched
counts-engine recording path and a per-replica agent-side loop produce
bit-identical values on the same counts (property-tested in
``tests/test_metrics.py``).
"""

from __future__ import annotations

import abc
import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .registry import METRICS
from .support import scatter_counts

__all__ = [
    "Metric",
    "RecordSpec",
    "TraceSet",
    "TraceRecorder",
    "as_record_spec",
    "stack_traces",
]


class Metric(abc.ABC):
    """A pure, vectorized observable of the color counts.

    Subclasses implement :meth:`compute_many` over an ``(R, k)`` batch;
    the scalar :meth:`compute` is *defined* as the batch path applied to a
    single row, so the two can never drift apart.  Metrics take no
    randomness and must not mutate their input.
    """

    #: Registry name; also the column name inside a :class:`TraceSet`.
    name: str = "metric"

    #: dtype of the recorded values.
    dtype: type = np.float64

    #: True when one round's value is a length-``k`` vector instead of a
    #: scalar (the ``counts`` snapshot).
    vector: bool = False

    #: True when the metric commutes with support compaction: computing it
    #: on the sparse engine's ``(R, s)`` support-compacted counts (and, for
    #: vector metrics, scattering the result back through the sorted
    #: support map) is bit-identical to computing it on the dense ``(R,
    #: k)`` counts.  Every built-in qualifies (dropped columns are exactly
    #: zero and contribute nothing); third-party metrics default to False,
    #: which makes the sparse recorder scatter to dense before evaluating
    #: them — always correct, just O(k) for that metric.
    sparse_invariant: bool = False

    @abc.abstractmethod
    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        """Values over an ``(R, k)`` batch: shape ``(R,)`` (or ``(R, k)``)."""

    def compute(self, counts: np.ndarray, n: int):
        """Value on one ``(k,)`` configuration — the batch path on one row."""
        return self.compute_many(np.asarray(counts)[None, :], n)[0]

    def shape(self, k: int) -> tuple[int, ...]:
        """Trailing shape of one recorded value (``()`` or ``(k,)``)."""
        return (k,) if self.vector else ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@METRICS.register("plurality-count")
class PluralityCountMetric(Metric):
    """Agents held by the current plurality color, ``max_j c_j``."""

    name = "plurality-count"
    dtype = np.int64
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        return np.asarray(counts).max(axis=1).astype(np.int64)


@METRICS.register("plurality-fraction")
class PluralityFractionMetric(Metric):
    """Fraction of agents on the plurality color, ``max_j c_j / n``."""

    name = "plurality-fraction"
    dtype = np.float64
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        return np.asarray(counts).max(axis=1) / np.float64(n)


@METRICS.register("bias")
class BiasMetric(Metric):
    """Additive bias ``s(c) = c_(1) - c_(2)`` (top count minus runner-up)."""

    name = "bias"
    dtype = np.int64
    #: On a width-1 compacted batch the k == 1 branch returns the single
    #: count — the same value as the dense runner-up-is-zero bias.
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        counts = np.asarray(counts)
        k = counts.shape[1]
        if k == 1:
            return counts[:, 0].astype(np.int64)
        top2 = np.partition(counts, k - 2, axis=1)[:, -2:]
        return (top2[:, 1] - top2[:, 0]).astype(np.int64)


@METRICS.register("support-size")
class SupportSizeMetric(Metric):
    """Number of colors still alive (``c_j > 0``)."""

    name = "support-size"
    dtype = np.int64
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        return np.count_nonzero(np.asarray(counts) > 0, axis=1).astype(np.int64)


@METRICS.register("entropy")
class EntropyMetric(Metric):
    """Shannon entropy (nats) of the empirical color distribution ``c / n``."""

    name = "entropy"
    dtype = np.float64
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        p = np.asarray(counts, dtype=np.float64) / np.float64(n)
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
        return -terms.sum(axis=1)


@METRICS.register("tv-monochromatic")
class TVMonochromaticMetric(Metric):
    """Total-variation distance to the nearest monochromatic configuration.

    For counts ``c`` the closest consensus state puts all ``n`` agents on
    the current plurality color, so the distance is ``(n - max_j c_j)/n``
    — 0 exactly at absorption, and the natural "how far from done" gauge.
    """

    name = "tv-monochromatic"
    dtype = np.float64
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        counts = np.asarray(counts)
        return (np.float64(n) - counts.max(axis=1)) / np.float64(n)


@METRICS.register("counts")
class CountsMetric(Metric):
    """Full count-vector snapshot (the trajectory itself)."""

    name = "counts"
    dtype = np.int64
    vector = True
    #: Compacted values scattered through the support map ARE the dense
    #: snapshot (dropped columns are exactly zero).
    sparse_invariant = True

    def compute_many(self, counts: np.ndarray, n: int) -> np.ndarray:
        return np.asarray(counts, dtype=np.int64).copy()


# ---------------------------------------------------------------------------
# Record specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordSpec:
    """What to observe: metric names plus an ``every``-round cadence.

    ``metrics`` are :data:`~repro.core.registry.METRICS` names (validated
    when the spec is resolved); ``every = m`` records rounds
    ``0, m, 2m, ...`` while a replica is alive.  Serializes to
    ``{"metrics": [...], "every": m}`` — the JSON value of
    ``ScenarioSpec.record``.
    """

    metrics: tuple[str, ...] = ()
    every: int = 1

    def __post_init__(self):
        metrics = tuple(self.metrics)
        if not all(isinstance(name, str) and name for name in metrics):
            raise ValueError(f"record metrics must be non-empty strings, got {metrics!r}")
        if len(set(metrics)) != len(metrics):
            raise ValueError(f"record metrics contain duplicates: {metrics!r}")
        object.__setattr__(self, "metrics", metrics)
        if isinstance(self.every, bool) or not isinstance(self.every, (int, np.integer)):
            raise ValueError(f"record every must be an integer >= 1, got {self.every!r}")
        if int(self.every) < 1:
            raise ValueError(f"record every must be >= 1, got {self.every}")
        object.__setattr__(self, "every", int(self.every))

    def resolve(self) -> list[Metric]:
        """Build every named metric (raises on unknown names)."""
        built = []
        for name in self.metrics:
            metric = METRICS.build(name)
            assert isinstance(metric, Metric)
            built.append(metric)
        return built

    def to_dict(self) -> dict[str, object]:
        return {"metrics": list(self.metrics), "every": self.every}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RecordSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"record must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - {"metrics", "every"})
        if unknown:
            raise ValueError(
                f"unknown record keys: {', '.join(unknown)} (known: every, metrics)"
            )
        metrics = data.get("metrics", ())
        if isinstance(metrics, str) or not isinstance(metrics, Sequence):
            raise ValueError(f"record metrics must be a list of names, got {metrics!r}")
        return cls(metrics=tuple(metrics), every=data.get("every", 1))


def as_record_spec(record, *, default: RecordSpec | None = None) -> RecordSpec | None:
    """Normalise any accepted ``record=`` spelling to a :class:`RecordSpec`.

    Accepts ``None`` (→ ``default``), a :class:`RecordSpec`, a single
    metric name, a sequence of names, or the serialized dict form.
    """
    if record is None:
        return default
    if isinstance(record, RecordSpec):
        return record
    if isinstance(record, str):
        return RecordSpec(metrics=(record,))
    if isinstance(record, Mapping):
        return RecordSpec.from_dict(record)
    if isinstance(record, Sequence):
        return RecordSpec(metrics=tuple(record))
    raise ValueError(
        f"record must be a RecordSpec, metric name(s) or a record dict, got {record!r}"
    )


# ---------------------------------------------------------------------------
# Columnar traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TraceSet:
    """Columnar per-round metric traces over a replica ensemble.

    Attributes
    ----------
    n:
        Number of agents (metrics are normalized by it).
    every:
        Recording cadence the trace was produced with.
    rounds:
        Recorded round indices, shape ``(T,)`` — ``0, every, 2·every, ...``.
    n_recorded:
        Per-replica count of valid leading slots, shape ``(R,)``: replica
        ``i``'s values are meaningful in ``data[name][i, :n_recorded[i]]``
        and zero-padded past its stopping round.
    data:
        One column per metric, insertion-ordered as recorded: shape
        ``(R, T)`` for scalar metrics, ``(R, T, k)`` for vector ones.
    """

    n: int
    every: int
    rounds: np.ndarray
    n_recorded: np.ndarray
    data: dict[str, np.ndarray]

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(self.data)

    @property
    def replicas(self) -> int:
        return int(self.n_recorded.size)

    @property
    def n_rounds(self) -> int:
        """Number of recorded slots ``T`` (the longest replica's)."""
        return int(self.rounds.size)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.data[name]
        except KeyError:
            known = ", ".join(self.metrics) or "<none>"
            raise KeyError(f"metric {name!r} was not recorded (recorded: {known})") from None

    def __contains__(self, name: object) -> bool:
        return name in self.data

    def replica(self, index: int, name: str) -> np.ndarray:
        """Replica ``index``'s valid (un-padded) series for one metric."""
        return self[name][index, : int(self.n_recorded[index])]

    def valid_mask(self) -> np.ndarray:
        """Boolean ``(R, T)`` mask of slots actually recorded."""
        return np.arange(self.n_rounds)[None, :] < self.n_recorded[:, None]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        if (self.n, self.every, self.metrics) != (other.n, other.every, other.metrics):
            return False
        if not np.array_equal(self.rounds, other.rounds):
            return False
        if not np.array_equal(self.n_recorded, other.n_recorded):
            return False
        return all(
            self.data[name].dtype == other.data[name].dtype
            and np.array_equal(self.data[name], other.data[name])
            for name in self.metrics
        )

    def __hash__(self):  # arrays are mutable; identity hash like ndarray
        return id(self)

    def digest(self) -> str:
        """sha256 over the trace's canonical bytes (bit-identity fingerprint).

        Covers metadata, dtypes, shapes and raw array contents, so two
        traces share a digest iff they are bit-identical — what the CI
        cold/warm cache smoke compares.  Every field is hashed with a
        length prefix (the ``derive_seed`` discipline): metric names are
        arbitrary registry strings, so delimiter-joined concatenation
        could otherwise let differently-shaped traces collide.
        """
        hasher = hashlib.sha256()

        def feed(blob: bytes) -> None:
            hasher.update(len(blob).to_bytes(8, "little"))
            hasher.update(blob)

        feed(str(self.n).encode())
        feed(str(self.every).encode())

        def feed_array(name: str, array: np.ndarray) -> None:
            feed(name.encode())
            feed(array.dtype.str.encode())
            feed(str(array.shape).encode())
            feed(np.ascontiguousarray(array).tobytes())

        feed_array("rounds", self.rounds)
        feed_array("n_recorded", self.n_recorded)
        for name in self.metrics:
            feed_array(name, self.data[name])
        return hasher.hexdigest()

    def copy(self) -> "TraceSet":
        """Deep copy (defensive, mirrors the serve cache's result copies)."""
        return TraceSet(
            n=self.n,
            every=self.every,
            rounds=self.rounds.copy(),
            n_recorded=self.n_recorded.copy(),
            data={name: array.copy() for name, array in self.data.items()},
        )

    def __repr__(self) -> str:
        return (
            f"TraceSet(replicas={self.replicas}, n_rounds={self.n_rounds}, "
            f"every={self.every}, metrics={list(self.metrics)})"
        )


def stack_traces(traces: Sequence[TraceSet]) -> TraceSet:
    """Stack single-replica traces into one padded multi-replica TraceSet.

    The unbatched :func:`~repro.core.process.run_ensemble` path assembles
    its per-replica :func:`~repro.core.process.run_process` traces with
    this, producing the same columnar layout as the batched recorder
    (shorter replicas zero-padded on the right).
    """
    if not traces:
        raise ValueError("need at least one trace to stack")
    first = traces[0]
    for trace in traces[1:]:
        if (trace.n, trace.every, trace.metrics) != (first.n, first.every, first.metrics):
            raise ValueError("can only stack traces with identical n/every/metrics")
    T = max(trace.n_rounds for trace in traces)
    rounds = np.arange(T, dtype=np.int64) * first.every
    n_recorded = np.concatenate([trace.n_recorded for trace in traces])
    data: dict[str, np.ndarray] = {}
    for name in first.metrics:
        columns = []
        for trace in traces:
            block = trace.data[name]
            pad = T - block.shape[1]
            if pad:
                widths = [(0, 0), (0, pad)] + [(0, 0)] * (block.ndim - 2)
                block = np.pad(block, widths)
            columns.append(block)
        data[name] = np.concatenate(columns, axis=0)
    return TraceSet(
        n=first.n, every=first.every, rounds=rounds, n_recorded=n_recorded, data=data
    )


class TraceRecorder:
    """Incremental TraceSet builder shared by both process runners.

    ``observe(t, counts, live)`` is called once per round with the
    ``(L, k)`` counts of the replicas still running and their global
    indices; rounds off the ``every`` cadence are skipped, retired
    replicas keep zero padding, and :meth:`finish` assembles the columnar
    arrays.  Metrics never see the RNG, so recording cannot perturb a
    trajectory — only observe it.
    """

    def __init__(self, spec: RecordSpec, *, n: int, k: int, replicas: int):
        self.spec = spec
        self.n = int(n)
        self.k = int(k)
        self.replicas = int(replicas)
        self._metrics = spec.resolve()
        self._rounds: list[int] = []
        self._slabs: list[list[np.ndarray]] = [[] for _ in self._metrics]
        self._all = np.arange(self.replicas)
        #: Per recorded round, the live replica indices.  Callers hand over
        #: index arrays they never mutate in place (the runners only ever
        #: *rebuild* their live sets), so holding references is safe and
        #: keeps the per-round cost of an idle recorder at two list appends
        #: — the bookkeeping reduction happens once, in :meth:`finish`.
        self._live: list[np.ndarray] = []

    def observe(
        self,
        t: int,
        counts: np.ndarray,
        live: np.ndarray | None = None,
        *,
        support: np.ndarray | None = None,
    ) -> None:
        """Record round ``t`` for the live replicas (no-op off-cadence).

        With ``support`` given, ``counts`` are the sparse engine's
        support-compacted ``(L, s)`` columns: metrics flagged
        :attr:`Metric.sparse_invariant` evaluate directly on them (vector
        metrics scatter their values through the sorted support map into
        the dense-``k`` slab), while unflagged metrics see a scattered
        dense copy — so the recorded trace is bit-identical to a dense-run
        trace either way.
        """
        if t % self.spec.every != 0:
            return
        if live is None:
            live = self._all
        self._rounds.append(t)
        self._live.append(live)
        dense = counts if support is None else None
        for metric, slabs in zip(self._metrics, self._slabs):
            slab = np.zeros((self.replicas,) + metric.shape(self.k), dtype=metric.dtype)
            if support is not None and metric.sparse_invariant:
                values = metric.compute_many(counts, self.n)
                if metric.vector:
                    slab[np.ix_(live, support)] = values
                else:
                    slab[live] = values
            else:
                if dense is None:
                    dense = scatter_counts(counts, support, self.k)
                slab[live] = metric.compute_many(dense, self.n)
            slabs.append(slab)

    def finish(self) -> TraceSet:
        data: dict[str, np.ndarray] = {}
        for metric, slabs in zip(self._metrics, self._slabs):
            if slabs:
                data[metric.name] = np.stack(slabs, axis=1)
            else:
                data[metric.name] = np.zeros(
                    (self.replicas, 0) + metric.shape(self.k), dtype=metric.dtype
                )
        if self._live:
            n_recorded = np.bincount(
                np.concatenate(self._live), minlength=self.replicas
            ).astype(np.int64)
        else:
            n_recorded = np.zeros(self.replicas, dtype=np.int64)
        return TraceSet(
            n=self.n,
            every=self.spec.every,
            rounds=np.asarray(self._rounds, dtype=np.int64),
            n_recorded=n_recorded,
            data=data,
        )

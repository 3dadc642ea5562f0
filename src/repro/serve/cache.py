"""Content-addressed cache for :class:`~repro.core.process.EnsembleResult`.

A scenario is plain data carrying its own seed, so its simulation result
is a pure function of ``(canonical scenario JSON, seed, engine schema
version)``.  :func:`cache_key` hashes exactly that triple;
:class:`ResultCache` stores results under the key in a small in-memory LRU
backed by an on-disk store, so warm lookups cost a dict probe and cold
processes can still reuse results written by earlier runs.  A disk entry
is one ``<key>.entry`` file, built in memory and published by a single
``os.replace``: a sha256 hex line, then the manifest JSON line (schema,
``plurality_color``, ``max_rounds``, trace ``n``/``every``/metric names),
then the npz payload.  Recorded :class:`~repro.core.metrics.TraceSet`
columns are stored *packed* — only each replica's valid prefix,
deflate-compressed via ``np.savez_compressed`` — and unpacked to the
bit-identical zero-padded columnar layout on read; with heterogeneous
stopping the dense blocks are mostly padding, so trace-bearing entries
shrink by an integer factor (measured in
``benchmarks/test_bench_sparse.py``).

Correctness contract (asserted in ``tests/test_serve.py``):

* a cache hit is **bit-identical** to calling
  :func:`~repro.scenario.simulate_ensemble` directly at equal seed — same
  arrays, same dtypes, same per-replica ``stopped_by`` labels, and the
  same columnar :class:`~repro.core.metrics.TraceSet` when the spec
  carries a ``record`` (the record config is part of the spec's canonical
  JSON, so recorded and un-recorded runs address different entries);
* entries written under a different
  :data:`~repro.core.process.ENGINE_SCHEMA_VERSION` are never served:
  the version is part of the key, so a new engine simply cannot address
  old entries (plus a manifest check as defence in depth for an entry
  that somehow lands under the right key).  Orphaned old-version entries
  are reclaimed by :meth:`ResultCache.purge_stale` (``repro cache
  purge``) or wholesale by :meth:`ResultCache.clear`, and so are the
  ``<key>.json`` + ``<key>.npz`` pairs of the earlier two-file layout,
  which are never read (a lookup misses and rewrites the entry).  Both
  touch only files named ``<64 hex digits>.<suffix>``;
* scenarios with ``seed=None`` (OS entropy) are not cacheable and are
  rejected at key time;
* a corrupted disk entry degrades to a recomputable **miss**, never to an
  unpickling crash or a wrong-bits hit: the sha256 line covers every
  value a hit serves (the manifest line and the npz payload) and is
  verified on every disk read.  An entry that fails verification — or
  fails to decode — is moved aside into ``quarantine/`` (counted in
  :meth:`ResultCache.stats` under ``quarantined``) so operators can
  inspect it, while the caller simply recomputes.  A *transient* read
  error (``OSError``) is also a miss but leaves the possibly-good entry
  in place (counted under ``read_errors``).  Both paths are exercised
  deterministically via the :mod:`repro.faults` points
  ``cache.read-error`` and ``cache.corrupt-payload``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import tempfile
import threading
import zipfile
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .. import faults
from ..core.metrics import TraceSet
from ..core.process import ENGINE_SCHEMA_VERSION, EnsembleResult
from ..scenario import ScenarioSpec

__all__ = [
    "DEFAULT_MEMORY_ENTRIES",
    "QUARANTINE_DIR",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
]

#: Default capacity of the in-memory LRU layer (entries, not bytes).
DEFAULT_MEMORY_ENTRIES = 256

_ENTRY_SUFFIX = ".entry"

#: The files the cache owns in its root: ``<key>.<suffix>``.  Current
#: entries end in ``.entry``; any other suffix (the ``.json``/``.npz``
#: pairs of the two-file layout) is never read and only purged.
_KEY_NAMED = re.compile(r"[0-9a-f]{64}\.[a-z]+")

#: Subdirectory (under the cache root) where corrupt entries are moved.
#: Not key-named, so stats()/clear()/purge_stale() never mistake a
#: quarantined file for a live entry.
QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    """On-disk cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def cache_key(spec: ScenarioSpec, *, schema_version: int = ENGINE_SCHEMA_VERSION) -> str:
    """Content-addressed key of one ensemble request (a sha256 hex digest).

    The key hashes the spec's canonical JSON, its seed and the engine
    schema version, so it is a function of the spec alone.  A spec with
    ``seed=None`` (OS entropy) has no reproducible result to key.
    """
    if spec.seed is None:
        raise ValueError("seed None is not cacheable (need an int)")
    # The seed is hashed twice, inside the scenario and on its own: that
    # is the payload every key on disk was written under.
    payload = {"schema": int(schema_version), "scenario": spec.to_dict(), "seed": spec.seed}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _encode(result: EnsembleResult, schema_version: int) -> bytes:
    """One entry file: the checksum line, the manifest line, the npz payload."""
    manifest = {
        "schema": int(schema_version),
        "plurality_color": int(result.plurality_color),
        "max_rounds": int(result.max_rounds),
        "trace": None,
    }
    arrays: dict[str, np.ndarray] = {
        "rounds": result.rounds,
        "winners": result.winners,
        "converged": result.converged,
        "final_counts": result.final_counts,
        # Object arrays don't npz-save without pickle; str labels round-trip
        # exactly through a fixed-width unicode array.
        "stopped_by": np.asarray(result.stopped_by, dtype=str),
    }
    trace = result.trace
    if trace is not None:
        # Metric columns are stored by position (names in the manifest): the
        # names are arbitrary registry strings, not valid npz keys.  They
        # are *packed*: only each replica's valid prefix is stored (the
        # padding past a replica's stop round is zero by construction, and
        # ``n_recorded`` + the recorded round count reconstruct it exactly)
        # — with heterogeneous stopping a dense (R, T, ...) block is mostly
        # padding, so this is where the cache's disk weight went.
        manifest["trace"] = {
            "n": int(trace.n),
            "every": int(trace.every),
            "metrics": list(trace.metrics),
        }
        arrays["trace_rounds"] = trace.rounds
        arrays["trace_n_recorded"] = trace.n_recorded
        valid = trace.valid_mask()
        for position, name in enumerate(trace.metrics):
            arrays[f"trace_values_{position}"] = trace.data[name][valid]
    # Trace-bearing entries are the heavy ones (per-round columns); the
    # zlib pass typically shrinks their zero-padding-free prefixes by a
    # further integer factor.  Trace-less entries stay uncompressed — they
    # are a handful of per-replica scalars, not worth the CPU.  The buffer
    # is sized up front (raw bytes plus headers bound the npz) and cut to
    # length after: grown write by write, it fragments a long-running
    # service's heap (about 0.9 MB more peak RSS over 3,500 puts).
    payload = io.BytesIO(bytes(sum(array.nbytes for array in arrays.values()) + 512 * len(arrays)))
    (np.savez_compressed if trace is not None else np.savez)(payload, **arrays)
    payload.truncate()
    # json.dumps escapes every newline, so the manifest is exactly one line.
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body += b"\n" + payload.getvalue()
    return hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body


def _decode(manifest: dict, arrays) -> EnsembleResult:
    trace = None
    trace_meta = manifest["trace"]
    if trace_meta is not None:
        rounds = np.asarray(arrays["trace_rounds"])
        n_recorded = np.asarray(arrays["trace_n_recorded"])
        # Unpack the valid prefixes back into the zero-padded columnar
        # layout: bit-identical to the recorded TraceSet (asserted via
        # digest() in the tests and the CI cold/warm smoke).
        data: dict[str, np.ndarray] = {}
        n_rounds = int(rounds.size)
        valid = np.arange(n_rounds)[None, :] < n_recorded[:, None]
        for position, name in enumerate(trace_meta["metrics"]):
            flat = np.asarray(arrays[f"trace_values_{position}"])
            column = np.zeros(
                (int(n_recorded.size), n_rounds) + flat.shape[1:], dtype=flat.dtype
            )
            column[valid] = flat
            data[str(name)] = column
        trace = TraceSet(
            n=int(trace_meta["n"]),
            every=int(trace_meta["every"]),
            rounds=rounds,
            n_recorded=n_recorded,
            data=data,
        )
    return EnsembleResult(
        rounds=np.asarray(arrays["rounds"]),
        winners=np.asarray(arrays["winners"]),
        converged=np.asarray(arrays["converged"]),
        plurality_color=int(manifest["plurality_color"]),
        max_rounds=int(manifest["max_rounds"]),
        final_counts=np.asarray(arrays["final_counts"]),
        stopped_by=np.array([str(label) for label in arrays["stopped_by"]], dtype=object),
        trace=trace,
    )


def _copy_result(result: EnsembleResult) -> EnsembleResult:
    """Defensive copy so callers can't mutate the cached arrays."""
    return EnsembleResult(
        rounds=result.rounds.copy(),
        winners=result.winners.copy(),
        converged=result.converged.copy(),
        plurality_color=result.plurality_color,
        max_rounds=result.max_rounds,
        final_counts=result.final_counts.copy(),
        stopped_by=result.stopped_by.copy(),
        trace=None if result.trace is None else result.trace.copy(),
    )


def _corrupt_file(path: Path, n_bytes: int = 16) -> None:
    """Flip ``n_bytes`` mid-file, in place (the corrupt-payload injection).

    Deterministic damage: inverts bytes starting at the file's midpoint, so
    the entry's content can no longer match its checksum line.
    """
    try:
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            offset = size // 2
            handle.seek(offset)
            chunk = handle.read(min(n_bytes, size - offset))
            handle.seek(offset)
            handle.write(bytes(byte ^ 0xFF for byte in chunk))
    except OSError:
        pass


def _key_named(root: Path | None) -> Iterator[os.DirEntry]:
    """The ``<key>.<suffix>`` files in ``root``, streamed from its listing.

    Collecting the listing would cost memory in proportion to the entries
    on disk, and the service answers /v1/stats from here.
    """
    if root is None:
        return
    try:
        listing = os.scandir(root)
    except OSError:
        return  # no root yet, or removed
    with listing:
        for entry in listing:
            if _KEY_NAMED.fullmatch(entry.name):
                yield entry


def _unlink(path: str | Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _entry_schema(path: str) -> object:
    """The ``schema`` of an entry file's manifest line, or None if unreadable."""
    try:
        with open(path, "rb") as handle:
            handle.readline()
            return json.loads(handle.readline())["schema"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


class ResultCache:
    """LRU-over-disk store of ensemble results, keyed by :func:`cache_key`.

    A disk entry is one ``<key>.entry`` file: a sha256 line over the
    manifest line and the npz payload that follow it.  The ``.json`` +
    ``.npz`` pairs of the two-file layout are never read;
    ``purge_stale()`` and ``clear()`` reclaim them.

    Thread-safe: every public operation serializes on one reentrant lock
    (the network service hammers a single cache from many threads), and
    hits hand out defensive copies, so concurrent readers can never
    observe each other's mutations.  Cross-*process* races on the disk
    layer (a ``repro cache clear`` against a running service) degrade to
    misses, never to corrupt hits: one ``os.replace`` publishes a whole
    entry, and ``_disk_put`` is best-effort.

    Parameters
    ----------
    root:
        Directory for the on-disk layer; created on first write.  ``None``
        makes the cache memory-only (useful for tests and one-shot sweeps).
    memory_entries:
        Capacity of the in-memory LRU layer.  Disk entries are unbounded;
        ``clear()`` removes both layers.
    schema_version:
        The engine contract this cache trusts.  Disk entries recorded under
        any other version are deleted on lookup instead of served.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        schema_version: int = ENGINE_SCHEMA_VERSION,
    ):
        if memory_entries < 1:
            raise ValueError(f"memory_entries must be >= 1, got {memory_entries}")
        self.root = None if root is None else Path(root).expanduser()
        self.memory_entries = int(memory_entries)
        self.schema_version = int(schema_version)
        self._memory: OrderedDict[str, EnsembleResult] = OrderedDict()
        # One reentrant lock over the LRU, the counters and the disk
        # put/remove paths: the service serves many threads off one cache,
        # and an OrderedDict move_to_end racing a popitem corrupts the LRU.
        # Simulation never runs under the lock (callers lock only through
        # get/put), so contention is bounded by (de)serialization.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self.quarantined = 0
        self.read_errors = 0

    # -- keying --------------------------------------------------------------

    def key_for(self, spec: ScenarioSpec) -> str:
        return cache_key(spec, schema_version=self.schema_version)

    # -- lookup / store ------------------------------------------------------

    def get(self, key: str) -> EnsembleResult | None:
        """The stored result for ``key``, or None on a miss."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return _copy_result(cached)
            cached = self._disk_get(key)
            if cached is not None:
                self._memory_put(key, cached)
                self.hits += 1
                return _copy_result(cached)
            self.misses += 1
            return None

    def put(self, key: str, result: EnsembleResult) -> None:
        """Store ``result`` under ``key`` in both layers."""
        if not isinstance(result, EnsembleResult):
            raise TypeError(f"can only cache EnsembleResult, got {type(result).__name__}")
        result = _copy_result(result)
        with self._lock:
            self._memory_put(key, result)
            self._disk_put(key, result)
            self.stores += 1

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Counters + layer sizes, JSON-able (what ``repro cache stats`` prints).

        ``disk_entries``/``disk_bytes`` count the ``<key>.entry`` files."""
        disk_entries = 0
        disk_bytes = 0
        with self._lock:
            for entry in _key_named(self.root):
                if not entry.name.endswith(_ENTRY_SUFFIX):
                    continue
                try:
                    disk_bytes += entry.stat().st_size
                except OSError:
                    continue  # removed mid-scan
                disk_entries += 1
            return {
                "root": None if self.root is None else str(self.root),
                "schema_version": self.schema_version,
                "memory_entries": len(self._memory),
                "memory_capacity": self.memory_entries,
                "disk_entries": disk_entries,
                "disk_bytes": disk_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "invalidated": self.invalidated,
                "quarantined": self.quarantined,
                "read_errors": self.read_errors,
            }

    def purge_stale(self) -> int:
        """Delete every key-named file that is not a current-schema entry.

        Old-version entries can never be *served* (the version is hashed
        into the key), and neither can the ``.json``/``.npz`` pairs of the
        two-file layout, but both would otherwise sit on disk forever; this
        reclaims them without touching current entries.  Returns the number
        of distinct keys removed.
        """
        removed = set()
        with self._lock:
            for entry in list(_key_named(self.root)):
                if (
                    entry.name.endswith(_ENTRY_SUFFIX)
                    and _entry_schema(entry.path) == self.schema_version
                ):
                    continue
                _unlink(entry.path)
                removed.add(entry.name[:64])
        return len(removed)

    def clear(self) -> int:
        """Drop every entry in both layers and empty the quarantine; returns
        the number of distinct keys removed (an entry resident in memory
        *and* on disk counts once)."""
        with self._lock:
            keys = set(self._memory)
            self._memory.clear()
            for entry in list(_key_named(self.root)):
                keys.add(entry.name[:64])
                _unlink(entry.path)
            if self.root is not None and (self.root / QUARANTINE_DIR).is_dir():
                for stale in (self.root / QUARANTINE_DIR).iterdir():
                    _unlink(stale)
            return len(keys)

    # -- internals -----------------------------------------------------------

    def _memory_put(self, key: str, result: EnsembleResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / (key + _ENTRY_SUFFIX)

    def _disk_get(self, key: str) -> EnsembleResult | None:
        if self.root is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        if faults.fire("cache.read-error") is not None:
            # Injected transient disk I/O failure: a miss, but the entry
            # (which may be perfectly good) stays on disk for the next read.
            self.read_errors += 1
            return None
        rule = faults.fire("cache.corrupt-payload")
        if rule is not None:
            # Corrupt the *on-disk* entry in place, so the checksum →
            # quarantine → recompute path engages end to end, exactly as it
            # would for real bit rot.
            _corrupt_file(path, int(rule.params.get("bytes", 16)))
        try:
            blob = path.read_bytes()
        except OSError:
            self.read_errors += 1
            return None
        checksum, _, body = blob.partition(b"\n")
        if hashlib.sha256(body).hexdigest().encode("ascii") != checksum:
            self._quarantine(path)
            return None
        manifest_line, _, payload = body.partition(b"\n")
        try:
            manifest = json.loads(manifest_line)
            if manifest["schema"] == self.schema_version:
                with np.load(io.BytesIO(payload)) as arrays:
                    return _decode(manifest, arrays)
        except (OSError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
            # Checksummed but undecodable: corrupt all the same —
            # quarantine, don't serve.
            self._quarantine(path)
            return None
        # Written by a different engine contract: invalidate, don't serve.
        _unlink(path)
        self.invalidated += 1
        return None

    def _disk_put(self, key: str, result: EnsembleResult) -> None:
        if self.root is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        blob = _encode(result, self.schema_version)
        # One rename publishes the whole entry, so a crash mid-write leaves a
        # miss; the "tmp…" name is not key-named, so maintenance ignores it.
        # Another process's clear(), or an operator deleting the root, can
        # race this write: a put is best-effort, so the entry is dropped.
        tmp = None
        try:
            with tempfile.NamedTemporaryFile(dir=self.root, suffix=".tmp", delete=False) as handle:
                tmp = handle.name
                handle.write(blob)
            os.replace(tmp, self._path(key))
        except OSError:
            if tmp is not None:
                _unlink(tmp)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/`` (fallback: delete).

        Either way the entry stops being servable — the caller sees a miss
        and recomputes — but quarantining preserves the bad bytes for
        post-mortem instead of destroying the evidence.
        """
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            _unlink(path)
        self.quarantined += 1

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
            return self.root is not None and self._path(key).exists()

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, entries={len(self._memory)}mem, "
            f"schema={self.schema_version}, hits={self.hits}, misses={self.misses})"
        )

"""Content-addressed cache for :class:`~repro.core.process.EnsembleResult`.

A scenario is plain data carrying its own seed, so its simulation result
is a pure function of ``(canonical scenario JSON, seed, engine schema
version)``.  :func:`cache_key` hashes exactly that triple;
:class:`ResultCache` stores results under the key in a small in-memory LRU
backed by an on-disk store, so warm lookups cost a dict probe and cold
processes can still reuse results written by earlier runs.

Who writes each layer: :func:`write_entry` is the one disk writer.  The
executor's run calls it where the result was computed (in the pool
worker, or on the owner thread with ``workers=0``), so a serving process
encodes and writes nothing on a cold request; the run's owner then stores
the result in the memory layer (:meth:`ResultCache.remember`) before any
waiter wakes.  :meth:`ResultCache.put` stores in both layers, its disk
half through the same :func:`write_entry`.

A disk entry is one ``<key>.entry`` file, built in memory and published
by a single ``os.replace``: a sha256 hex line, then the manifest JSON line
(schema, ``plurality_color``, ``max_rounds``, ``trace``, and ``arrays``:
the ``name``, ``dtype`` and ``shape`` of each C-order buffer the payload
holds, in order), then the payload: those raw buffers, concatenated.  A
recorded :class:`~repro.core.metrics.TraceSet` adds its ``n``, ``every``
and metric names as ``trace`` and its columns as ``trace_*`` buffers, and
deflates the payload as one block.  The columns are stored *packed* —
only each replica's valid prefix — and unpacked to the bit-identical
zero-padded columnar layout on read; with heterogeneous stopping the
dense blocks are mostly padding, so trace-bearing entries shrink by an
integer factor (measured in ``benchmarks/test_bench_sparse.py``).

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
  entries of earlier layouts (the ``<key>.json`` + ``<key>.npz`` pairs,
  and ``<key>.entry`` files with an npz payload), which are never read: a
  lookup misses, counts them ``invalidated`` and rewrites the entry.
  Both touch only files named ``<64 hex digits>.<suffix>``;
* scenarios with ``seed=None`` (OS entropy) are not cacheable and are
  rejected at key time;
* a corrupted disk entry degrades to a recomputable **miss**, never to an
  unpickling crash or a wrong-bits hit: the sha256 line covers every
  value a hit serves (the manifest line and the payload) and is verified
  on every disk read.  An entry that fails verification — or fails to
  decode, such as a listing naming a dtype the writer never emits — is
  moved aside into ``quarantine/`` (counted in
  :meth:`ResultCache.stats` under ``quarantined``) so operators can
  inspect it, while the caller simply recomputes.  A *transient* read
  error (``OSError``) is also a miss but leaves the possibly-good entry
  in place (counted under ``read_errors``).  Both paths are exercised
  deterministically via the :mod:`repro.faults` points
  ``cache.read-error`` and ``cache.corrupt-payload``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import zlib
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
    "write_entry",
]

#: Default capacity of the in-memory LRU layer (entries, not bytes).
DEFAULT_MEMORY_ENTRIES = 256

_ENTRY_SUFFIX = ".entry"

#: The files the cache owns in its root: ``<key>.<suffix>``.  Current
#: entries end in ``.entry``; any other suffix (the ``.json``/``.npz``
#: pairs of the two-file layout) is never read and only purged.
_KEY_NAMED = re.compile(r"[0-9a-f]{64}\.[a-z]+")

#: The dtype kinds an entry holds: bool, signed and unsigned ints, floats
#: and fixed-width str.  Anything else has no faithful raw buffer (an
#: object array), so a listing that names it is corrupt.
_RAW_KINDS = "biufU"

#: How :func:`write_entry` opens its temporary file: a fresh file or fail.
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL

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
    """One entry file: the checksum line, the manifest line, the payload."""
    arrays: dict[str, np.ndarray] = {
        "rounds": result.rounds,
        "winners": result.winners,
        "converged": result.converged,
        "final_counts": result.final_counts,
        # An object array has no raw buffer; str labels round-trip
        # exactly through a fixed-width unicode array.
        "stopped_by": np.asarray(result.stopped_by, dtype=str),
    }
    manifest = {
        "schema": int(schema_version),
        "plurality_color": int(result.plurality_color),
        "max_rounds": int(result.max_rounds),
        "trace": None,
    }
    trace = result.trace
    if trace is not None:
        # Metric columns are stored by position (names in the manifest) and
        # *packed*: only each replica's valid prefix is stored (the padding
        # past a replica's stop round is zero by construction, and
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
    manifest["arrays"] = [
        {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        for name, array in arrays.items()
    ]
    # json.dumps escapes every newline, so the manifest is exactly one line.
    parts = [json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"]
    buffers = [np.ascontiguousarray(array) for array in arrays.values()]
    if trace is None:
        parts += buffers
    else:
        # Trace-bearing entries are the heavy ones (per-round columns); one
        # zlib pass typically shrinks them by a further integer factor.
        # Level 1: on these columns of small integers it stores within a few
        # percent of level 6's bytes in well under half its time, and the
        # run that waits for this write is the serving bottleneck.
        # Trace-less entries stay raw — a handful of per-replica scalars,
        # not worth the CPU.
        parts.append(zlib.compress(b"".join(buffers), 1))
    checksum = hashlib.sha256()
    for part in parts:
        checksum.update(part)
    return b"".join([checksum.hexdigest().encode("ascii"), b"\n", *parts])


def _unpack(listing: list, buffer: bytes) -> dict[str, np.ndarray]:
    """The arrays ``listing`` names, copied in order out of ``buffer``,
    which must hold exactly them."""
    arrays = {}
    offset = 0
    for item in listing:
        dtype = np.dtype(item["dtype"])
        if dtype.kind not in _RAW_KINDS:
            raise ValueError(f"an entry holds no {dtype} arrays")
        shape = tuple(int(extent) for extent in item["shape"])
        count = math.prod(shape)
        arrays[item["name"]] = np.frombuffer(buffer, dtype, count, offset).reshape(shape).copy()
        offset += count * dtype.itemsize
    if offset != len(buffer):
        raise ValueError("entry payload does not match its manifest's listing")
    return arrays


def _decode(manifest: dict, payload: bytes) -> EnsembleResult:
    """The result an entry's manifest and payload hold; raises on any mismatch."""
    trace_meta = manifest["trace"]
    arrays = _unpack(manifest["arrays"], payload if trace_meta is None else zlib.decompress(payload))
    trace = None
    if trace_meta is not None:
        rounds = arrays["trace_rounds"]
        n_recorded = arrays["trace_n_recorded"]
        # Unpack the valid prefixes back into the zero-padded columnar
        # layout: bit-identical to the recorded TraceSet (asserted via
        # digest() in the tests and the CI cold/warm smoke).
        data: dict[str, np.ndarray] = {}
        n_rounds = int(rounds.size)
        valid = np.arange(n_rounds)[None, :] < n_recorded[:, None]
        for position, name in enumerate(trace_meta["metrics"]):
            flat = arrays[f"trace_values_{position}"]
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
        rounds=arrays["rounds"],
        winners=arrays["winners"],
        converged=arrays["converged"],
        plurality_color=int(manifest["plurality_color"]),
        max_rounds=int(manifest["max_rounds"]),
        final_counts=arrays["final_counts"],
        stopped_by=np.array([str(label) for label in arrays["stopped_by"]], dtype=object),
        trace=trace,
    )


def write_entry(
    root: str | Path,
    key: str,
    result: EnsembleResult,
    schema_version: int = ENGINE_SCHEMA_VERSION,
) -> None:
    """Write ``result`` as ``<root>/<key>.entry``: the one disk writer.

    Needs no lock, so a pool worker calls it as well as
    :meth:`ResultCache.put`: the entry is built in memory, written to a
    fresh temporary file (``tmp….tmp``, not key-named, so maintenance
    ignores it) with one ``os.write``, and published by one ``os.replace``,
    so a reader, or a crash mid-write, sees a whole entry or none.  The
    root is created only when it is missing.  Best-effort: an ``OSError``
    (a full disk, another process's ``clear()`` removing the root) drops
    the entry, and the next lookup misses and recomputes.
    """
    blob = _encode(result, schema_version)
    tmp = os.path.join(root, f"tmp{os.urandom(8).hex()}.tmp")
    try:
        try:
            handle = os.open(tmp, _CREATE)
        except FileNotFoundError:
            os.makedirs(root, exist_ok=True)
            handle = os.open(tmp, _CREATE)
        try:
            if os.write(handle, blob) != len(blob):
                raise OSError(f"short write to {tmp}")
        finally:
            os.close(handle)
        os.replace(tmp, os.path.join(root, key + _ENTRY_SUFFIX))
    except OSError:
        _unlink(tmp)


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


def _is_current(manifest, schema_version: int) -> bool:
    """Whether a parsed manifest line belongs to a servable entry.

    It must carry ``schema_version`` and this layout's ``arrays`` listing:
    an entry with an npz payload (the layout before) lists none, and like
    an entry of another schema it is stale, never read.  Raises
    ``KeyError``/``TypeError`` for a line that is no manifest at all.
    """
    return manifest["schema"] == schema_version and "arrays" in manifest


def _is_current_file(path: str, schema_version: int) -> bool:
    """Whether an entry file's manifest line (only that is read) is current."""
    try:
        with open(path, "rb") as handle:
            handle.readline()
            return _is_current(json.loads(handle.readline()), schema_version)
    except (OSError, ValueError, KeyError, TypeError):
        return False


class ResultCache:
    """LRU-over-disk store of ensemble results, keyed by :func:`cache_key`.

    A disk entry is one ``<key>.entry`` file: a sha256 line over the
    manifest line and the raw payload that follow it.  Entries of earlier
    layouts are never read; ``purge_stale()`` and ``clear()`` reclaim them.

    Thread-safe: the memory layer, the counters and every disk read or
    removal serialize on one reentrant lock (the network service hammers
    a single cache from many threads), and hits hand out defensive copies,
    so concurrent readers can never observe each other's mutations.  Disk
    writes take no lock: :func:`write_entry` runs in pool workers too.
    Races on the disk layer, within a process or across processes (a
    ``repro cache clear`` against a running service), degrade to misses,
    never to corrupt hits: one ``os.replace`` publishes a whole entry, and
    a write is best-effort.

    Parameters
    ----------
    root:
        Directory for the on-disk layer; created when a write finds it
        missing.  ``None``
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
        # read/remove paths: the service serves many threads off one cache,
        # and an OrderedDict move_to_end racing a popitem corrupts the LRU.
        # Neither simulation nor encoding runs under the lock, so
        # contention is bounded by disk reads.
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
        """Store ``result`` under ``key`` in both layers: :meth:`remember`,
        then :func:`write_entry` into the disk layer."""
        self.remember(key, result)
        if self.root is not None:
            write_entry(self.root, key, result, self.schema_version)

    def remember(self, key: str, result: EnsembleResult) -> None:
        """Store ``result`` under ``key`` in the memory layer only.

        For a run whose disk entry is already written: the executor's
        runs call :func:`write_entry` themselves.
        """
        if not isinstance(result, EnsembleResult):
            raise TypeError(f"can only cache EnsembleResult, got {type(result).__name__}")
        result = _copy_result(result)
        with self._lock:
            self._memory_put(key, result)
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
        """Delete every key-named file that is not a current entry.

        Old-version entries can never be *served* (the version is hashed
        into the key), and neither can the entries of earlier layouts (the
        ``.json``/``.npz`` pairs, and ``.entry`` files with an npz payload),
        but all would otherwise sit on disk forever; this reclaims them
        without touching current entries.  Returns the number of distinct
        keys removed.
        """
        removed = set()
        with self._lock:
            for entry in list(_key_named(self.root)):
                if entry.name.endswith(_ENTRY_SUFFIX) and _is_current_file(
                    entry.path, self.schema_version
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
            if _is_current(manifest, self.schema_version):
                return _decode(manifest, payload)
        except (LookupError, TypeError, ValueError, zlib.error):
            # Checksummed but undecodable: corrupt all the same —
            # quarantine, don't serve.
            self._quarantine(path)
            return None
        # Written by a different engine contract, or in an earlier layout:
        # invalidate, don't serve.
        _unlink(path)
        self.invalidated += 1
        return None

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

"""Tests for the serving substrate: content-addressed cache + the execution core."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import threading
import zlib
from collections import Counter

import numpy as np
import pytest

import repro.serve.cache as cache_module
import repro.serve.executor as executor_module
from repro import ResultCache, ScenarioSpec, cache_key, faults, run_batch, simulate_ensemble
from repro.core.process import ENGINE_SCHEMA_VERSION, EnsembleResult
from repro.serve.executor import Executor


def small_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        dynamics="3-majority",
        initial="paper-biased",
        n=4_000,
        k=4,
        replicas=6,
        seed=0,
        stopping={"rule": "plurality-fraction", "fraction": 0.9},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def fetch(cache: ResultCache, spec: ScenarioSpec) -> EnsembleResult:
    """Serve ``spec`` through the execution core: from ``cache``, or run and store."""
    with Executor(cache) as executor:
        return executor.submit(spec).result()[2]


def assert_results_identical(a: EnsembleResult, b: EnsembleResult) -> None:
    """Bit-identity over every field of two ensemble results."""
    for name in ("rounds", "winners", "converged"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
    assert a.plurality_color == b.plurality_color
    assert a.max_rounds == b.max_rounds
    assert a.final_counts.dtype == b.final_counts.dtype
    assert np.array_equal(a.final_counts, b.final_counts)
    assert list(a.stopped_by) == list(b.stopped_by)
    assert (a.trace is None) == (b.trace is None)
    if a.trace is not None:
        assert a.trace == b.trace
        assert a.trace.digest() == b.trace.digest()


def read_entry(path) -> tuple[bytes, dict, bytes]:
    """Split a disk entry into its checksum line, manifest and payload.

    The payload is the C-order buffers the manifest's ``arrays`` lists, in
    order: raw, or deflated as one block when the manifest has a ``trace``.
    """
    checksum, manifest_line, payload = path.read_bytes().split(b"\n", 2)
    return checksum, json.loads(manifest_line), payload


def write_entry(path, manifest_line: bytes, payload: bytes) -> None:
    """Write a disk entry whose checksum matches what it holds."""
    body = manifest_line + b"\n" + payload
    path.write_bytes(hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body)


def listed_bytes(listing: list) -> int:
    """The byte count of the raw buffers a manifest listing names."""
    return sum(np.dtype(item["dtype"]).itemsize * math.prod(item["shape"]) for item in listing)


class TestCacheKey:
    def test_deterministic_and_content_addressed(self):
        spec = small_spec()
        assert cache_key(spec) == cache_key(ScenarioSpec.from_json(spec.to_json()))

    def test_any_field_change_changes_key(self):
        base = small_spec()
        for change in (
            {"seed": 1},
            {"replicas": 7},
            {"n": 4_001},
            {"max_rounds": 99},
            {"dynamics": "voter"},
            {"stopping": None},
            {"record": {"metrics": ["bias"], "every": 1}},
        ):
            assert cache_key(base.with_overrides(**change)) != cache_key(base)

    def test_schema_version_changes_key(self):
        spec = small_spec()
        assert cache_key(spec, schema_version=ENGINE_SCHEMA_VERSION + 1) != cache_key(spec)

    def test_rejects_uncacheable_seeds(self):
        with pytest.raises(ValueError, match="not cacheable"):
            cache_key(small_spec(seed=None))

    #: Fixed int-seeded specs and their keys at engine schema 5.  A key
    #: addresses every entry already on disk, so it may change only with
    #: the schema: a bump re-pins these, as it re-pins the result pins.
    PINNED_KEYS = [
        (
            {
                "dynamics": "3-majority", "initial": "paper-biased", "n": 4_000, "k": 4,
                "replicas": 6, "seed": 0,
                "stopping": {"rule": "plurality-fraction", "fraction": 0.9},
            },
            "48986ab0763a39f0fe3e11d96546b316534d7bf3a58cc797fbeeb24a9d965858",
        ),
        (
            {
                "dynamics": "3-majority", "initial": "paper-biased", "n": 4_000, "k": 4,
                "replicas": 6, "seed": 3,
                "stopping": {"rule": "plurality-fraction", "fraction": 0.9},
                "record": {"metrics": ["bias", "plurality-fraction"], "every": 1},
            },
            "b6ebe2fcc681440df66cd2b9accb30c9c9c9854195f197754c80318c4e417406",
        ),
        (
            {
                "dynamics": "3-majority", "initial": "biased", "initial_params": {"bias": 8},
                "n": 120, "k": 3, "topology": "torus",
                "topology_params": {"rows": 10, "cols": 12},
                "replicas": 4, "max_rounds": 2_000, "seed": 5,
            },
            "32e7253416acbf7c272e320d7556663e6e5378537c1beccec9c86e9d38d1903e",
        ),
    ]

    @pytest.mark.parametrize("fields, key", PINNED_KEYS, ids=["clique", "recorded", "graph"])
    def test_pinned_keys(self, fields, key):
        spec = ScenarioSpec.from_dict(fields)
        assert cache_key(spec) == key
        assert ResultCache(None).key_for(spec) == key


class TestResultCache:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        key = cache.key_for(spec)
        assert cache.get(key) is None
        direct = simulate_ensemble(spec)
        cache.put(key, direct)
        hit = cache.get(key)
        assert hit is not None
        assert_results_identical(direct, hit)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        spec = small_spec()
        writer = ResultCache(tmp_path)
        fetch(writer, spec)
        reader = ResultCache(tmp_path)  # fresh memory layer, same disk
        hit = reader.get(reader.key_for(spec))
        assert hit is not None
        assert_results_identical(simulate_ensemble(spec), hit)

    def test_recorded_spec_round_trips_traceset_bit_identically(self, tmp_path):
        # The acceptance contract: a recorded spec's cached replay — both
        # from the memory layer and from a cold disk read — carries a
        # TraceSet bit-identical to the cold run's.
        spec = small_spec(
            record={"metrics": ["bias", "counts", "plurality-fraction"], "every": 1}
        )
        direct = simulate_ensemble(spec)
        assert direct.trace is not None
        cache = ResultCache(tmp_path)
        cold = fetch(cache, spec)
        warm = fetch(cache, spec)
        disk = fetch(ResultCache(tmp_path), spec)  # cold process, disk layer
        for replay in (cold, warm, disk):
            assert_results_identical(direct, replay)
        assert disk.trace.digest() == direct.trace.digest()

    def test_record_config_separates_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        bare = fetch(cache, small_spec())
        recorded = fetch(cache, small_spec(record=["bias"]))
        assert bare.trace is None
        assert recorded.trace is not None
        assert cache.misses == 2  # different content addresses, no collision
        assert np.array_equal(bare.rounds, recorded.rounds)

    def test_cached_run_equals_direct_call(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        cold = fetch(cache, spec)
        warm = fetch(cache, spec)
        direct = simulate_ensemble(spec)
        assert_results_identical(direct, cold)
        assert_results_identical(direct, warm)

    def test_engine_schema_version_is_4(self):
        # Schema 5: h-plurality at h >= 4 steps one generating-function law
        # on the counts engine at every (h, k), so its draws moved (schema 4
        # moved two-choices and undecided-state); older entries must be
        # unaddressable.
        assert ENGINE_SCHEMA_VERSION == 5

    def test_engine_field_separates_cache_entries(self, tmp_path):
        keys = {cache_key(small_spec(engine=engine)) for engine in ("auto", "dense", "sparse")}
        assert len(keys) == 3
        # An auto spec keeps the pre-engine-field canonical identity.
        assert "engine" not in small_spec().canonical_json()

    def test_sparse_engine_results_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="balanced",
            n=2_000,
            k=256,
            replicas=6,
            seed=3,
            engine="sparse",
            stopping={"rule": "plurality-fraction", "fraction": 0.5},
            record={"metrics": ["bias", "counts"], "every": 1},
        )
        direct = simulate_ensemble(spec)
        cache = ResultCache(tmp_path)
        cold = fetch(cache, spec)
        disk = fetch(ResultCache(tmp_path), spec)
        assert_results_identical(direct, cold)
        assert_results_identical(direct, disk)

    def test_trace_columns_are_packed_and_compressed_on_disk(self, tmp_path):
        # Heterogeneous stopping makes the dense (R, T, k) counts block
        # mostly padding; the disk layer must store only the valid
        # prefixes (flat, first axis = sum of n_recorded) inside the
        # deflated payload, and unpack bit-identically.
        spec = small_spec(record={"metrics": ["counts", "bias"], "every": 1})
        direct = simulate_ensemble(spec)
        trace = direct.trace
        assert trace.n_recorded.min() < trace.n_recorded.max()  # heterogeneous
        cache = ResultCache(tmp_path)
        key = cache.key_for(spec)
        cache.put(key, direct)
        _, manifest, payload = read_entry(cache._path(key))
        assert manifest["trace"] == {"n": spec.n, "every": 1, "metrics": ["counts", "bias"]}
        buffers = zlib.decompress(payload)
        assert len(buffers) == listed_bytes(manifest["arrays"])
        packed = {item["name"]: item for item in manifest["arrays"]}["trace_values_0"]
        assert tuple(packed["shape"]) == (int(trace.n_recorded.sum()), spec.k)
        assert np.dtype(packed["dtype"]) == trace["counts"].dtype
        # Strictly fewer stored cells than the dense padded block (the size
        # win at scale is recorded by the benchmark suite), and deflated.
        assert listed_bytes([packed]) < trace["counts"].nbytes
        assert len(payload) < len(buffers)
        replay = ResultCache(tmp_path).get(key)
        assert replay.trace.digest() == trace.digest()

    def test_schema_version_invalidates(self, tmp_path):
        # Primary mechanism: the version is hashed into the key, so a new
        # engine simply never addresses old entries.
        spec = small_spec()
        old = ResultCache(tmp_path, schema_version=ENGINE_SCHEMA_VERSION)
        fetch(old, spec)
        new = ResultCache(tmp_path, schema_version=ENGINE_SCHEMA_VERSION + 1)
        assert new.get(new.key_for(spec)) is None

    def test_stale_manifest_is_removed_not_served(self, tmp_path):
        # Defence in depth: an intact entry *addressed* by the right key but
        # whose manifest records another engine version is deleted, not
        # decoded.
        spec = small_spec()
        cache = ResultCache(tmp_path)
        key = cache.key_for(spec)
        fetch(cache, spec)
        entry_path = cache._path(key)
        _, manifest, payload = read_entry(entry_path)
        manifest["schema"] = ENGINE_SCHEMA_VERSION - 1
        write_entry(entry_path, json.dumps(manifest).encode(), payload)
        fresh = ResultCache(tmp_path)  # bypass the memory layer
        assert fresh.get(key) is None
        assert (fresh.invalidated, fresh.quarantined) == (1, 0)
        assert not entry_path.exists()

    @pytest.mark.parametrize("field", ["plurality_color", "max_rounds", "every"])
    def test_edited_manifest_value_is_a_quarantined_miss(self, tmp_path, field):
        # The checksum covers every value a hit serves, manifest included:
        # an edited value must not come back as a hit.
        spec = small_spec(record={"metrics": ["bias"], "every": 1})
        cache = ResultCache(tmp_path)
        fetch(cache, spec)
        key = cache.key_for(spec)
        edited = 0
        for path in tmp_path.glob(key + ".*"):
            blob = path.read_bytes()
            pattern = rb'("%s":\s*)\d+' % field.encode()
            changed = re.sub(pattern, rb"\g<1>3", blob, count=1)
            if changed != blob:
                path.write_bytes(changed)
                edited += 1
        assert edited == 1
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == 1

    def test_two_file_pairs_are_never_read_and_purge_reclaims_them(self, tmp_path):
        # An entry of the earlier layout (a <key>.json manifest next to a
        # <key>.npz payload) is a miss, not a hit; purge_stale removes it.
        spec = small_spec()
        cache = ResultCache(tmp_path)
        fetch(cache, spec)
        key = cache.key_for(spec)
        _, manifest, payload = read_entry(cache._path(key))
        cache._path(key).unlink()
        (tmp_path / (key + ".json")).write_text(json.dumps(manifest))
        (tmp_path / (key + ".npz")).write_bytes(payload)
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats()["disk_entries"] == 0
        assert fresh.purge_stale() == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_cache_files_in_the_root_are_left_alone(self, tmp_path):
        cache = ResultCache(tmp_path)
        fetch(cache, small_spec())
        (tmp_path / "settings.json").write_text('{"theme": "dark"}')
        (tmp_path / "batch.json").write_text('[{"dynamics": "voter"}]')
        assert cache.stats()["disk_entries"] == 1
        assert cache.purge_stale() == 0
        assert cache.stats()["disk_entries"] == 1
        assert cache.clear() == 1
        assert cache.stats()["disk_entries"] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["batch.json", "settings.json"]

    def test_returned_arrays_are_defensive_copies(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        first = fetch(cache, spec)
        first.rounds[:] = -99
        second = fetch(cache, spec)
        assert not np.array_equal(first.rounds, second.rounds)
        assert_results_identical(simulate_ensemble(spec), second)

    def test_memory_lru_evicts_to_disk_layer(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=1)
        spec_a, spec_b = small_spec(seed=0), small_spec(seed=1)
        fetch(cache, spec_a)
        fetch(cache, spec_b)  # evicts spec_a from memory
        assert len(cache._memory) == 1
        hit = cache.get(cache.key_for(spec_a))  # re-promoted from disk
        assert hit is not None

    def test_memory_only_cache(self):
        cache = ResultCache(None)
        spec = small_spec()
        cold = fetch(cache, spec)
        warm = fetch(cache, spec)
        assert cache.hits == 1
        assert_results_identical(cold, warm)
        assert cache.stats()["root"] is None

    def test_memory_only_cache_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        encodes = Counter()
        real_encode = cache_module._encode
        monkeypatch.setattr(
            cache_module, "_encode", lambda *args: encodes.update(["encode"]) or real_encode(*args)
        )
        cache = ResultCache(None)
        spec = small_spec()
        fetch(cache, spec)  # the executor's run
        cache.put(cache.key_for(spec.with_overrides(seed=1)), simulate_ensemble(spec))
        assert encodes == Counter()
        assert list(tmp_path.iterdir()) == []

    def test_npz_entry_of_the_layout_before_is_invalidated_and_purged(self, tmp_path):
        # An entry with an npz payload and a valid checksum is stale, like
        # an entry of another schema: a lookup unlinks it and misses, and
        # purge_stale reclaims it; neither quarantines it.
        spec = small_spec()
        result = simulate_ensemble(spec)
        cache = ResultCache(tmp_path)
        key = cache.key_for(spec)
        npz = io.BytesIO()
        np.savez(
            npz,
            rounds=result.rounds,
            winners=result.winners,
            converged=result.converged,
            final_counts=result.final_counts,
            stopped_by=np.asarray(result.stopped_by, dtype=str),
        )
        manifest = {
            "max_rounds": result.max_rounds,
            "plurality_color": result.plurality_color,
            "schema": ENGINE_SCHEMA_VERSION,
            "trace": None,
        }
        manifest_line = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        write_entry(cache._path(key), manifest_line, npz.getvalue())
        assert cache.get(key) is None
        assert (cache.invalidated, cache.quarantined) == (1, 0)
        assert list(tmp_path.iterdir()) == []
        write_entry(cache._path(key), manifest_line, npz.getvalue())
        assert cache.stats()["disk_entries"] == 1
        assert cache.purge_stale() == 1
        assert list(tmp_path.iterdir()) == []
        assert cache.quarantined == 0

    def test_one_open_write_and_rename_per_entry(self, tmp_path, monkeypatch):
        # A put opens one fresh temporary file, writes it once and renames
        # it; only the write that finds the root missing creates it.
        calls = Counter()

        def counted(name):
            real = getattr(os, name)
            return lambda *args, **kwargs: calls.update([name]) or real(*args, **kwargs)

        for name in ("open", "write", "replace", "mkdir"):
            monkeypatch.setattr(os, name, counted(name))
        cache = ResultCache(tmp_path / "cache")
        results = [simulate_ensemble(small_spec(seed=seed)) for seed in range(4)]
        cache.put("0" * 64, results[0])
        assert calls == Counter(open=2, mkdir=1, write=1, replace=1)  # the first open missed the root
        calls.clear()
        for seed, result in enumerate(results[1:], start=1):
            cache.put(f"{seed}" * 64, result)
        assert calls == Counter(open=3, write=3, replace=3)
        assert cache.stats()["disk_entries"] == 4

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        fetch(cache, small_spec(seed=0))
        fetch(cache, small_spec(seed=1))
        stats = cache.stats()
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] > 0
        # Each entry lives in memory *and* on disk but counts once.
        assert cache.clear() == 2
        assert cache.stats()["disk_entries"] == 0
        assert cache.get(cache.key_for(small_spec(seed=0))) is None

    def test_root_tilde_is_expanded(self):
        cache = ResultCache("~/some-cache")
        assert "~" not in str(cache.root)

    def test_purge_stale_removes_only_other_versions(self, tmp_path):
        current = ResultCache(tmp_path)
        fetch(current, small_spec(seed=0))
        old = ResultCache(tmp_path, schema_version=ENGINE_SCHEMA_VERSION - 1)
        fetch(old, small_spec(seed=0))  # different key: old-version entry
        assert current.stats()["disk_entries"] == 2
        assert current.purge_stale() == 1
        assert current.stats()["disk_entries"] == 1
        assert current.get(current.key_for(small_spec(seed=0))) is not None

    def test_one_rename_publishes_one_entry_file(self, tmp_path, monkeypatch):
        renames = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda *args: renames.append(args) or real_replace(*args))
        spec = small_spec()
        cache = ResultCache(tmp_path)
        key = cache.key_for(spec)
        cache.put(key, simulate_ensemble(spec))
        assert len(renames) == 1
        assert [p.name for p in tmp_path.iterdir()] == [key + ".entry"]

    def test_in_flight_temp_files_stay_out_of_entry_namespace(self, tmp_path):
        # stats()/clear() act on key-named files only; writer temp files
        # are not key-named.
        cache = ResultCache(tmp_path)
        fetch(cache, small_spec(seed=0))
        (tmp_path / "tmpabc123.json.tmp").write_text("{}")
        (tmp_path / "tmpabc123.npz.tmp").write_bytes(b"")
        assert cache.stats()["disk_entries"] == 1
        assert cache.clear() == 1

    def test_rejects_junk(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError, match="EnsembleResult"):
            cache.put("deadbeef", {"not": "a result"})
        with pytest.raises(ValueError, match="memory_entries"):
            ResultCache(tmp_path, memory_entries=0)


class TestRunBatch:
    def test_order_preserved_and_bit_identical(self, tmp_path):
        specs = [small_spec(seed=s) for s in (3, 1, 2, 1, 3)]
        report = run_batch(specs, cache=ResultCache(tmp_path), processes=1)
        assert report.requests == 5
        for spec, result in zip(specs, report.results):
            assert_results_identical(simulate_ensemble(spec), result)

    def test_dedup_counts(self, tmp_path):
        specs = [small_spec(seed=0)] * 3 + [small_spec(seed=1)]
        report = run_batch(specs, cache=ResultCache(tmp_path), processes=1)
        summary = report.summary()
        assert summary["misses"] == 2
        assert summary["deduped"] == 2
        assert summary["hits"] == 0
        assert report.sources == ["run", "dedup", "dedup", "run"]

    def test_warm_batch_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [small_spec(seed=s) for s in (0, 1)]
        run_batch(specs, cache=cache, processes=1)
        warm = run_batch(specs, cache=cache, processes=1)
        assert warm.summary()["hits"] == 2 and warm.summary()["misses"] == 0
        assert warm.sources == ["cache", "cache"]
        assert warm.summary()["unique"] == 2

    def test_without_cache_still_dedups(self):
        report = run_batch([small_spec(), small_spec()], processes=1)
        assert report.summary()["deduped"] == 1 and report.summary()["misses"] == 1

    def test_rejects_unseeded_specs(self):
        # An entry without a seed, or that is not a spec, is its own
        # item's error; its siblings still run.
        good = small_spec()
        report = run_batch([small_spec(seed=None), "not a spec", good.to_dict()], processes=1)
        assert report.sources == ["error", "error", "run"]
        assert report.keys == [None, None, cache_key(good)]
        assert "seed=None" in report.errors[0]["message"]
        assert report.errors[1] == {
            "type": "ValueError",
            "message": "scenario must be a JSON object, got str",
        }
        assert report.specs == [None, None, good]
        assert_results_identical(report.results[2], simulate_ensemble(good))
        assert report.summary()["unique"] == 1 and report.summary()["errors"] == 2


class TestGraphSpecServing:
    """Graph-topology specs flow through the cache + executor unchanged."""

    def _graph_spec(self, **overrides) -> ScenarioSpec:
        fields = dict(
            dynamics="3-majority",
            initial="biased",
            initial_params={"bias": 8},
            n=120,
            k=3,
            topology="torus",
            topology_params={"rows": 10, "cols": 12},
            replicas=4,
            max_rounds=2_000,
            seed=5,
            record={"metrics": ["counts", "bias"], "every": 1},
        )
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def test_cold_warm_disk_bit_identical(self, tmp_path):
        spec = self._graph_spec()
        direct = simulate_ensemble(spec)
        assert direct.trace is not None
        cache = ResultCache(tmp_path)
        cold = fetch(cache, spec)
        warm = fetch(cache, spec)
        disk = fetch(ResultCache(tmp_path), spec)  # cold process, disk layer
        for replay in (cold, warm, disk):
            assert_results_identical(direct, replay)
        assert disk.trace.digest() == direct.trace.digest()

    def test_distinct_keys_per_topology_and_params(self):
        base = self._graph_spec()
        keys = {
            cache_key(base),
            cache_key(base.with_overrides(topology="cycle", topology_params={})),
            cache_key(base.with_overrides(topology_params={"rows": 12, "cols": 10})),
            cache_key(
                base.with_overrides(topology="random-regular", topology_params={"d": 8})
            ),
        }
        assert len(keys) == 4

    def test_run_batch_mixes_graph_and_counts_specs(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [
            small_spec(),
            self._graph_spec(),
            self._graph_spec(),  # duplicate — must dedup, not re-run
        ]
        report = run_batch(specs, cache=cache, processes=1)
        assert report.summary()["deduped"] == 1
        assert_results_identical(report.results[1], report.results[2])
        again = run_batch(specs, cache=cache, processes=1)
        assert again.summary()["hits"] == 2  # per unique spec
        assert again.summary()["misses"] == 0
        for first, second in zip(report.results, again.results):
            assert_results_identical(first, second)


class TestCacheThreadSafety:
    """The cache is shared by service handler threads; hammer it."""

    def test_threaded_readers_writers_and_purge(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path, memory_entries=4)
        specs = [small_spec(seed=s, record={"metrics": ["bias"], "every": 1}) for s in range(6)]
        expected = {cache_key(spec): simulate_ensemble(spec) for spec in specs}
        failures: list[BaseException] = []
        stop = threading.Event()

        def writer(spec: ScenarioSpec) -> None:
            key = cache_key(spec)
            try:
                while not stop.is_set():
                    cache.put(key, expected[key])
            except BaseException as exc:  # noqa: BLE001 — collected for the assert
                failures.append(exc)

        def reader(spec: ScenarioSpec) -> None:
            key = cache_key(spec)
            try:
                while not stop.is_set():
                    hit = cache.get(key)
                    if hit is not None:
                        assert_results_identical(hit, expected[key])
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        def churner() -> None:
            try:
                while not stop.is_set():
                    cache.stats()
                    cache.purge_stale()
                    cache.clear()
            except BaseException as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(s,)) for s in specs]
        threads += [threading.Thread(target=reader, args=(s,)) for s in specs]
        threads += [threading.Thread(target=churner)]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures
        # After the dust settles the cache still round-trips bit-identically.
        for spec in specs:
            key = cache_key(spec)
            cache.put(key, expected[key])
            assert_results_identical(cache.get(key), expected[key])

    def test_disk_put_tolerates_entry_dir_vanishing(self, tmp_path, monkeypatch):
        # A concurrent `repro cache clear` can unlink the entry directory
        # between the tmp-file write and the atomic renames; the put must
        # degrade to a no-op miss instead of raising.
        import shutil

        cache = ResultCache(tmp_path)
        spec = small_spec()
        key = cache_key(spec)
        result = simulate_ensemble(spec)

        real_replace = os.replace

        def racing_replace(src, dst):
            shutil.rmtree(tmp_path, ignore_errors=True)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        cache.put(key, result)  # must not raise
        monkeypatch.setattr(os, "replace", real_replace)
        cache2 = ResultCache(tmp_path)
        assert cache2.get(key) is None  # degraded to a miss, not corruption


class TestExecutorResilience:
    """Crash/stall recovery and per-item failure envelopes in run_batch."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def test_injected_crash_retries_bit_identical(self):
        from repro import faults

        spec = small_spec()
        baseline = run_batch([spec], processes=1)
        # The first shard attempt crashes, the retry succeeds: one retry
        # recorded, result bit-identical to the fault-free run.
        faults.arm(
            {"rules": [{"point": "executor.worker-crash", "nth": 1, "times": 1}]}
        )
        report = run_batch([spec], processes=1)
        assert report.errors == [None]
        assert sum(report.retries.values()) == 1
        assert_results_identical(report.results[0], baseline.results[0])

    def test_crash_every_attempt_exhausts_bounded(self, monkeypatch):
        from repro import faults
        from repro.serve.executor import WorkerPoolError

        monkeypatch.setattr(executor_module, "MAX_ATTEMPTS", 2)
        faults.arm({"rules": [{"point": "executor.worker-crash", "probability": 1.0}]})
        with pytest.raises(WorkerPoolError, match="after 2 attempts"):
            run_batch([small_spec()], processes=1)

    def test_worker_exception_becomes_item_envelope(self, monkeypatch):
        import repro.serve.executor as executor_module

        good = small_spec(seed=0)
        bad = small_spec(seed=1)
        bad_json = bad.to_json(indent=None)
        real = executor_module.simulate_ensemble

        def poisoned(spec, **kwargs):
            if spec.to_json(indent=None) == bad_json:
                raise RuntimeError("poisoned spec")
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "simulate_ensemble", poisoned)
        report = run_batch([good, bad, good], processes=1)
        # Sibling items are unaffected; the poisoned one carries an envelope.
        assert report.results[0] is not None
        assert report.results[2] is not None
        assert report.results[1] is None
        assert report.errors[1] == {"type": "RuntimeError", "message": "poisoned spec"}
        assert report.sources[1] == "error"
        assert report.summary()["errors"] == 1
        assert report.summary()["misses"] == 1  # the run that answered

    def test_failed_items_are_not_cached(self, monkeypatch, tmp_path):
        import repro.serve.executor as executor_module

        spec = small_spec()

        def explode(spec, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(executor_module, "simulate_ensemble", explode)
        cache = ResultCache(tmp_path / "cache")
        report = run_batch([spec], cache=cache, processes=1)
        assert report.summary()["errors"] == 1
        assert cache.key_for(spec) not in cache

    def test_injected_fault_is_not_swallowed_as_envelope(self):
        # InjectedFault models infrastructure failure: it must stay
        # retryable, never become a deterministic per-item envelope.
        from repro import faults
        from repro.serve.executor import _run_task

        spec = small_spec()
        faults.arm({"rules": [{"point": "executor.worker-crash", "probability": 1.0}]})
        with pytest.raises(faults.InjectedWorkerCrash):
            _run_task(spec.to_json(indent=None))

    def test_backoff_delay_deterministic_and_capped(self):
        import random

        from repro.serve.executor import BACKOFF_CAP_SECONDS, backoff_delay

        a = [backoff_delay(i, random.Random(0)) for i in range(12)]
        b = [backoff_delay(i, random.Random(0)) for i in range(12)]
        assert a == b
        assert all(delay <= BACKOFF_CAP_SECONDS * 1.5 for delay in a)


class TestExecutor:
    """The one execution core: coalescing, pooled retry, abandoned callers."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        faults.disarm()
        yield
        faults.disarm()

    @pytest.fixture
    def gate(self, monkeypatch):
        """Hold every in-process run until ``release`` is set."""
        release = threading.Event()
        real = executor_module._run_task

        def held(*args):
            if not release.wait(60):
                raise RuntimeError("gate never opened")
            return real(*args)

        monkeypatch.setattr(executor_module, "_run_task", held)
        yield release
        release.set()

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_worker_timeout_is_rejected(self, seconds):
        with pytest.raises(ValueError, match="finite"):
            Executor(ResultCache(None), workers=1, worker_timeout=seconds)

    def test_concurrent_duplicate_submits_run_once(self, gate):
        spec = small_spec(record={"metrics": ["bias"], "every": 1})
        fan_out = 5
        with Executor(ResultCache(None)) as executor:
            futures = [executor.submit(spec) for _ in range(fan_out)]
            gate.set()
            outcomes = [future.result(timeout=60) for future in futures]
            assert executor.runs == 1
            assert executor.coalesced == fan_out - 1
        assert [source for _, source, _ in outcomes] == ["run"] + ["coalesced"] * (fan_out - 1)
        assert len({result.trace.digest() for _, _, result in outcomes}) == 1
        assert_results_identical(outcomes[0][2], simulate_ensemble(spec))

    def test_threaded_duplicate_submits_coalesce_exactly(self, gate):
        # Many threads race submit() on a few keys while the runs are held:
        # a lost update on the in-flight table would start a second run.
        import sys

        specs = [small_spec(seed=s, n=1_000) for s in range(4)]
        threads_n, per_thread = 8, 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Executor(ResultCache(None)) as executor:
                futures: list = []

                def hammer(offset: int) -> None:
                    for i in range(per_thread):
                        futures.append(executor.submit(specs[(offset + i) % len(specs)]))

                threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                gate.set()
                outcomes = [future.result(timeout=60) for future in futures]
                assert executor.runs == len(specs)
                assert executor.coalesced == threads_n * per_thread - len(specs)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(source for _, source, _ in outcomes).count("run") == len(specs)

    def test_abandoned_caller_does_not_cancel_the_run(self, gate):
        spec = small_spec()
        cache = ResultCache(None)
        with Executor(cache) as executor:
            first = executor.submit(spec)
            follower = executor.submit(spec)
            assert first.cancel()  # the first caller gives up
            gate.set()
            key, source, result = follower.result(timeout=60)
            assert source == "coalesced"
            assert executor.runs == 1 and executor._inflight == {}
        assert cache.get(key) is not None  # finished and cached all the same

    def test_a_lost_pool_is_replaced_once(self):
        # Every run that lost a broken or stalled pool asks for a new one;
        # only the first request replaces it.  (No worker is spawned here.)
        with Executor(workers=1) as executor:
            lost = executor._pool
            executor._replace_pool(lost)
            fresh = executor._pool
            executor._replace_pool(lost)
            assert fresh is not lost and executor._pool is fresh

    def test_pooled_run_writes_its_own_entry(self, tmp_path, monkeypatch):
        # The pool worker writes <key>.entry before it answers, so the
        # entry is on disk when the future resolves, and this (the serving)
        # process encodes and writes no entry: it only remembers the result.
        calls = Counter()
        real_encode = cache_module._encode
        monkeypatch.setattr(
            cache_module, "_encode", lambda *args: calls.update(["encode"]) or real_encode(*args)
        )
        for module in (cache_module, executor_module):
            monkeypatch.setattr(module, "write_entry", lambda *args: calls.update(["write"]))
        spec = small_spec(record={"metrics": ["bias"], "every": 1})
        cache = ResultCache(tmp_path)
        with Executor(cache, workers=1) as executor:
            key, source, result = executor.submit(spec).result(timeout=120)
            assert source == "run"
            assert (tmp_path / (key + ".entry")).is_file()
        assert calls == Counter()
        assert (cache.stores, cache.misses) == (1, 1)
        assert key in cache._memory
        disk = ResultCache(tmp_path).get(key)
        for replay in (result, disk):
            assert_results_identical(replay, simulate_ensemble(spec))

    def test_pooled_crash_retries_on_the_same_pool(self, monkeypatch):
        # Spawned workers arm the plan from the environment, so every fresh
        # worker crashes its first task.  Retrying on the same pool reaches
        # a worker that already fired; respawning would replay the crash.
        monkeypatch.setenv(
            faults.ENV_VAR,
            '{"rules":[{"point":"executor.worker-crash","nth":1,"times":1}]}',
        )
        specs = [small_spec(seed=s) for s in range(4)]
        report = run_batch(specs, processes=2)
        assert report.errors == [None] * 4
        assert report.retries and set(report.retries.values()) == {1}
        for spec, result in zip(specs, report.results):
            assert_results_identical(result, simulate_ensemble(spec))


class TestCacheQuarantine:
    """Checksum-validated reads: corruption degrades to a recomputable miss."""

    @pytest.fixture(autouse=True)
    def _disarmed(self):
        from repro import faults

        faults.disarm()
        yield
        faults.disarm()

    def _corrupt(self, cache: ResultCache, key: str) -> None:
        entry_path = cache._path(key)
        blob = bytearray(entry_path.read_bytes())
        middle = len(blob) // 2
        for offset in range(middle, min(middle + 16, len(blob))):
            blob[offset] ^= 0xFF
        entry_path.write_bytes(bytes(blob))

    def test_corrupt_npz_round_trip(self, tmp_path):
        from repro.serve.cache import QUARANTINE_DIR

        spec = small_spec(record={"metrics": ["bias"], "every": 1})
        cache = ResultCache(tmp_path / "cache")
        original = fetch(cache, spec)
        key = cache.key_for(spec)
        self._corrupt(cache, key)
        cache._memory.clear()  # force the disk read path

        # Corruption → miss + quarantine, not a crash or a wrong-bits hit.
        assert cache.get(key) is None
        stats = cache.stats()
        assert stats["quarantined"] == 1
        quarantine = (tmp_path / "cache") / QUARANTINE_DIR
        assert [p.name for p in quarantine.iterdir()] == [cache._path(key).name]
        # Quarantined files are out of the live-entry namespace.
        assert stats["disk_entries"] == 0

        # Recompute and re-store: bit-identical to the original, including
        # the trace digest.
        recomputed = fetch(cache, spec)
        assert_results_identical(recomputed, original)
        assert recomputed.trace.digest() == original.trace.digest()
        cache._memory.clear()
        served = cache.get(key)
        assert_results_identical(served, original)

    def test_corrupt_manifest_quarantines(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        fetch(cache, spec)
        key = cache.key_for(spec)
        # An intact checksum over a manifest that does not parse: quarantined
        # all the same.
        _, _, payload = read_entry(cache._path(key))
        write_entry(cache._path(key), b"{not json", payload)
        cache._memory.clear()
        assert cache.get(key) is None
        assert cache.quarantined == 1

    def test_checksum_recorded_at_write_time(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        direct = fetch(cache, spec)
        key = cache.key_for(spec)
        # The checksum line covers the manifest line and the raw payload.
        checksum, body = cache._path(key).read_bytes().split(b"\n", 1)
        assert checksum.decode("ascii") == hashlib.sha256(body).hexdigest()
        manifest_line, payload = body.split(b"\n", 1)
        manifest = json.loads(manifest_line)
        assert manifest["schema"] == ENGINE_SCHEMA_VERSION
        # The payload is exactly the buffers the manifest lists, rounds first.
        assert manifest["arrays"][0] == {
            "name": "rounds", "dtype": direct.rounds.dtype.str, "shape": [spec.replicas],
        }
        assert payload.startswith(direct.rounds.tobytes())
        assert len(payload) == listed_bytes(manifest["arrays"])

    def test_listing_an_object_dtype_is_a_quarantined_miss(self, tmp_path):
        # The writer emits bool, int, float and fixed-width str buffers
        # only; a checksummed listing naming any other dtype is corrupt.
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        fetch(cache, spec)
        key = cache.key_for(spec)
        _, manifest, payload = read_entry(cache._path(key))
        rounds = manifest["arrays"][0]
        assert (rounds["name"], rounds["dtype"]) == ("rounds", "<i8")
        rounds["dtype"] = "|O"  # same item size: only the kind is wrong
        write_entry(cache._path(key), json.dumps(manifest).encode(), payload)
        cache._memory.clear()
        assert cache.get(key) is None
        assert (cache.quarantined, cache.invalidated) == (1, 0)

    def test_read_error_fault_is_miss_without_deletion(self, tmp_path):
        from repro import faults

        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        fetch(cache, spec)
        key = cache.key_for(spec)
        cache._memory.clear()
        faults.arm({"rules": [{"point": "cache.read-error", "nth": 1, "times": 1}]})
        # Transient I/O failure: miss, but the good entry stays on disk.
        assert cache.get(key) is None
        assert cache.read_errors == 1
        assert cache._path(key).exists()
        assert cache.get(key) is not None  # next read succeeds

    def test_corrupt_payload_fault_engages_quarantine_end_to_end(self, tmp_path):
        from repro import faults
        from repro.serve.cache import QUARANTINE_DIR

        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        original = fetch(cache, spec)
        key = cache.key_for(spec)
        cache._memory.clear()
        faults.arm(
            {"rules": [{"point": "cache.corrupt-payload", "nth": 1, "times": 1}]}
        )
        assert cache.get(key) is None  # the fault corrupted the real file
        assert cache.quarantined == 1
        assert ((tmp_path / "cache") / QUARANTINE_DIR).is_dir()
        recomputed = fetch(cache, spec)
        assert_results_identical(recomputed, original)

    def test_clear_also_empties_quarantine(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        fetch(cache, spec)
        key = cache.key_for(spec)
        self._corrupt(cache, key)
        cache._memory.clear()
        assert cache.get(key) is None
        assert cache.quarantined == 1
        cache.clear()
        from repro.serve.cache import QUARANTINE_DIR

        quarantine = (tmp_path / "cache") / QUARANTINE_DIR
        assert not any(quarantine.iterdir())

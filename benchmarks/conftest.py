"""Benchmark-suite helpers.

Every file here uses the pytest-benchmark fixture, so the suite is run as::

    pytest benchmarks/ --benchmark-only

The experiment benches (`test_bench_eXX_*`) regenerate the E1–E12 result
tables (``repro list``; claims from PAPER.md) at smoke scale (timing the
full regeneration); `test_bench_kernels` times the low-level step engines,
and `test_bench_ablation` times the design alternatives (exact vs
agent-level engine, tie-break convention, batched vs per-replica).
Rendered tables are printed; pass ``-s`` to see them inline.

Machine-readable results: a timed run (i.e. not with
``--benchmark-disable``) with ``REPRO_BENCH_WRITE=1`` in the environment
writes ``benchmarks/BENCH_results.json`` — one record per benchmark with
ns/op statistics plus whatever the bench attached via
``benchmark.extra_info`` (engine, n, k, replicas, ...).  Records merge by
fullname into the existing file.  Without the variable nothing is
written, so a plain test run leaves the checkout as it found it.  These
single-host timings are a record, not a baseline: performance claims
come from ``perfbench/``.

Guards: each acceptance guard (warm ≥ 10× cold, sparse ≥ 10× dense,
< 5% facade overhead, ...) asserts its property by counting — runs,
resolves, columns stepped, recorder constructions — so tier-1 never
compares two timings.  The wall-clock ratio runs too when
``REPRO_BENCH_WRITE=1`` (the :func:`timed_guards` fixture), as in CI's
bench-smoke job.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_NAME = "BENCH_results.json"

#: Environment variable that opts a session into writing :data:`RESULTS_NAME`.
WRITE_ENV = "REPRO_BENCH_WRITE"


@pytest.fixture
def timed_guards() -> bool:
    """Whether the guards also compare wall-clock timings (``REPRO_BENCH_WRITE=1``)."""
    return os.environ.get(WRITE_ENV) == "1"


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test.

    Returns the list each call appends its ``(args, kwargs)`` to.  A
    function found on a class stays a method: ``args[0]`` is the instance.
    """

    def install(owner, name: str) -> list:
        calls: list = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def show():
    """Print a rendered table so `-s` runs double as report generators."""

    def _show(table) -> None:
        print()
        print(table.render())

    return _show


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get(WRITE_ENV) != "1":
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not getattr(bench_session, "benchmarks", None):
        return
    records = []
    for bench in bench_session.benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None:
            continue
        records.append(
            {
                "name": bench.name,
                "group": getattr(bench, "group", None),
                "fullname": getattr(bench, "fullname", bench.name),
                "mean_ns": float(stats.mean) * 1e9,
                "median_ns": float(stats.median) * 1e9,
                "stddev_ns": float(stats.stddev) * 1e9,
                "min_ns": float(stats.min) * 1e9,
                "ops_per_s": float(stats.ops),
                "rounds": int(stats.rounds),
                "extra_info": dict(getattr(bench, "extra_info", {}) or {}),
            }
        )
    if not records:
        return
    out = pathlib.Path(__file__).parent / RESULTS_NAME
    # Merge with any existing file (keyed by fullname) so a filtered run
    # refreshes its own records without discarding the other groups.
    merged: dict[str, dict] = {}
    if out.exists():
        try:
            for rec in json.loads(out.read_text()).get("benchmarks", []):
                merged[rec.get("fullname", rec.get("name", ""))] = rec
        except (json.JSONDecodeError, OSError):
            merged = {}
    for rec in records:
        merged[rec["fullname"]] = rec
    payload = {
        "benchmarks": sorted(
            merged.values(), key=lambda r: r.get("fullname", r.get("name", ""))
        )
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {len(records)} benchmark records to {out} ({len(merged)} total)")

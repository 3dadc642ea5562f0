"""Metric catalogue and the per-layer readout shared by every workload.

``BENCHMARK.json`` repeats these lists; ``smoke.py`` checks that they agree.
A per-layer metric whose layer does no work on a workload reads 0.
"""

from __future__ import annotations

from .common import metric

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("replica_rounds_per_s", "1/s", "higher", 0.25),
    ("ok_share", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

FAMILIES = [
    "3-majority",
    "3-majority-sparse",
    "h-plurality",
    "three-input",
    "two-choices",
    "median",
    "undecided-state",
]

#: (name, unit, better)
PER_LAYER = [
    ("scenario.parse_us", "us", "lower"),
    ("scenario.validate_ms", "ms", "lower"),
    ("scenario.resolve_share", "ratio", "lower"),
    ("graphs.topology_build_ms", "ms", "lower"),
    ("graphs.engine_us_per_replica_round", "us", "lower"),
    *[(f"core.engine_us_per_replica_round.{family}", "us", "lower") for family in FAMILIES],
    ("core.engine_share", "ratio", "higher"),
    ("core.replica_rounds", "count", "lower"),
    ("cache.key_us", "us", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("cache.bytes_per_entry", "bytes", "lower"),
    ("service.payload_us", "us", "lower"),
    ("service.encode_us", "us", "lower"),
    ("service.client_mean_ms", "ms", "lower"),
    ("service.server_mean_ms", "ms", "lower"),
    ("service.transport_ms", "ms", "lower"),
    ("service.stage_sum_ms", "ms", "lower"),
    ("service.unattributed_share", "ratio", "lower"),
    ("service.server_cpu_ms_per_req", "ms", "lower"),
    ("service.worker_hop_ms", "ms", "lower"),
    ("service.runs", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.shed", "count", "lower"),
    ("service.deadline_hits", "count", "lower"),
    ("service.worker_retries", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def render(values: dict[str, float], catalogue) -> dict[str, dict]:
    """Every catalogue metric as ``{"value", "unit"}``; absent ones read 0."""
    return {name: metric(values.get(name, 0.0), _UNITS[name]) for name, *_ in catalogue}


def _mean(calls_seconds, scale: float) -> float:
    calls, seconds = calls_seconds
    return seconds / calls * scale if calls else 0.0


def engine_layers(tracer, ops: dict[int, tuple[str, int]]) -> dict[str, float]:
    """Scenario, graph and core readouts from a traced replay.

    ``ops`` maps operation id to ``(family, replica_rounds)`` for every
    operation that ran an engine in the replay.
    """
    totals = tracer.totals()
    none = (0, 0.0)
    simulate = totals.get("scenario.simulate_ensemble", none)[1]
    engine = totals.get("core.run_ensemble", none)[1] + totals.get("graphs.run_graph_ensemble", none)[1]
    resolve = tracer.child_seconds("scenario.simulate_ensemble", "scenario.resolve")
    out = {
        "scenario.parse_us": _mean(totals.get("scenario.parse", none), 1e6),
        "scenario.validate_ms": _mean(totals.get("scenario.validate", none), 1e3),
        "scenario.resolve_share": resolve / simulate if simulate else 0.0,
        "core.engine_share": engine / simulate if simulate else 0.0,
        "core.replica_rounds": float(sum(rounds for _family, rounds in ops.values())),
    }
    engine_by_op = tracer.per_op("core.run_ensemble")
    for op, seconds in tracer.per_op("graphs.run_graph_ensemble").items():
        engine_by_op[op] = engine_by_op.get(op, 0.0) + seconds
    seconds_by_family: dict[str, float] = {}
    rounds_by_family: dict[str, int] = {}
    for op, (family, rounds) in ops.items():
        seconds_by_family[family] = seconds_by_family.get(family, 0.0) + engine_by_op.get(op, 0.0)
        rounds_by_family[family] = rounds_by_family.get(family, 0) + rounds
    for family in FAMILIES:
        if rounds_by_family.get(family):
            out[f"core.engine_us_per_replica_round.{family}"] = (
                seconds_by_family[family] / rounds_by_family[family] * 1e6
            )
    if rounds_by_family.get("graph"):
        out["graphs.engine_us_per_replica_round"] = (
            seconds_by_family["graph"] / rounds_by_family["graph"] * 1e6
        )
    return out

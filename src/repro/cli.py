"""Command-line interface: experiments, figures and declarative scenarios.

Usage (installed as ``repro`` or via ``python -m repro.cli``)::

    repro list
    repro describe E5
    repro run E2 --scale small --seed 0
    repro run all --scale smoke --csv-dir out/
    repro scenarios
    repro metrics
    repro topologies
    repro simulate scenario.json --json
    repro simulate --dynamics 3-majority --initial paper-biased \\
        --n 100000 --k 8 --replicas 32 --seed 0 \\
        --record bias,plurality-fraction --record-every 1
    repro simulate --dynamics 3-majority --topology torus \\
        --n 10000 --k 4 --replicas 16 --seed 0
    repro batch specs.json --json
    repro cache stats
    repro cache clear
    repro serve --port 8321 --workers 2
    repro load --smoke --json

Each run prints the experiment's ResultTable; ``--csv-dir`` additionally
writes one CSV per experiment for downstream plotting.  ``simulate``
executes one declarative :class:`~repro.scenario.ScenarioSpec` — from a
JSON file or assembled from inline flags — and ``scenarios`` lists every
registered dynamics/workload/adversary/stopping-rule name a spec may
reference; ``metrics`` lists the per-round observables a spec's
``record`` field (or ``--record``) may name; ``topologies`` lists the
graph generators a spec's ``topology`` field (or ``--topology``) may
name.  ``batch`` pushes a JSON
array of scenarios through the :mod:`repro.serve` substrate
(content-addressed result cache + executor, recorded TraceSets
included) — invalid items are reported per item, they never abort the
valid ones; ``cache`` inspects or clears that cache.  ``serve`` runs the
network-facing scenario service of :mod:`repro.service` in the
foreground, and ``load`` replays the seeded scenario corpus against a
service (spawning a fresh cold one by default) with per-endpoint
latency percentiles and an optional p95 budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .service import __main__ as service_main  # flag definitions only; the stack loads on serve

__all__ = ["main", "build_parser"]


def _json_flag(text: str) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction suite for 'Simple Dynamics for Plurality Consensus' (SPAA'14)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")

    describe = sub.add_parser("describe", help="show an experiment's paper claim")
    describe.add_argument("experiment", help="experiment id, e.g. E3")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. E3, or 'all'")
    run.add_argument("--scale", default="small", choices=("smoke", "small", "paper"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--csv-dir", default=None, help="directory for CSV exports")

    plot = sub.add_parser("plot", help="render an ASCII figure (or 'all')")
    plot.add_argument("figure", help="figure id, e.g. F3, or 'all'")
    plot.add_argument("--scale", default="small", choices=("smoke", "small", "paper"))
    plot.add_argument("--seed", type=int, default=0)

    scenarios = sub.add_parser(
        "scenarios", help="list registered dynamics/workloads/adversaries/stopping rules"
    )
    scenarios.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    metrics = sub.add_parser(
        "metrics", help="list registered per-round metrics a spec may record"
    )
    metrics.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    topologies = sub.add_parser(
        "topologies", help="list registered graph topologies a spec may name"
    )
    topologies.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    sim = sub.add_parser(
        "simulate", help="run a declarative scenario (JSON file or inline flags)"
    )
    sim.add_argument("scenario", nargs="?", default=None, help="path to a scenario JSON file")
    sim.add_argument("--dynamics", default=None, help="registered dynamics name")
    sim.add_argument("--initial", default=None, help="registered workload name")
    sim.add_argument("--adversary", default=None, help="registered adversary name")
    sim.add_argument(
        "--topology",
        default=None,
        help="registered graph topology name (see `repro topologies`; default: clique counts engine)",
    )
    sim.add_argument("--n", type=int, default=None, help="number of agents")
    sim.add_argument("--k", type=int, default=None, help="number of colors")
    sim.add_argument("--replicas", type=int, default=None)
    sim.add_argument("--max-rounds", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument(
        "--engine",
        choices=("auto", "dense", "sparse"),
        default=None,
        help=(
            "ensemble batch layout: dense (R, k) stepping, sparse O(support) "
            "stepping for large k, or auto (default; sparse at k >= 128 when "
            "the scenario is sparse-eligible)"
        ),
    )
    sim.add_argument(
        "--dynamics-params", type=_json_flag, default=None, help='JSON object, e.g. \'{"h": 5}\''
    )
    sim.add_argument("--initial-params", type=_json_flag, default=None, help="JSON object")
    sim.add_argument("--adversary-params", type=_json_flag, default=None, help="JSON object")
    sim.add_argument(
        "--topology-params",
        type=_json_flag,
        default=None,
        help='JSON object, e.g. \'{"rows": 50, "cols": 200}\' (needs --topology)',
    )
    sim.add_argument(
        "--stopping",
        type=_json_flag,
        default=None,
        help='stopping-rule JSON, e.g. \'{"rule": "plurality-fraction", "fraction": 0.9}\'',
    )
    sim.add_argument(
        "--record",
        default=None,
        help="comma-separated metric names to trace per round (see `repro metrics`)",
    )
    sim.add_argument(
        "--record-every",
        type=int,
        default=None,
        help="record every m-th round (default 1; needs --record or a file record)",
    )
    sim.add_argument("--json", action="store_true", help="emit machine-readable result JSON")
    sim.add_argument("--save-spec", default=None, help="also write the resolved spec JSON here")

    batch = sub.add_parser(
        "batch",
        help="execute a JSON batch of scenarios through the cache + executor",
    )
    batch.add_argument(
        "specs",
        help="JSON file: an array of scenario objects (or {\"scenarios\": [...]})",
    )
    batch.add_argument("--json", action="store_true", help="emit machine-readable result JSON")
    batch.add_argument("--processes", type=int, default=None, help="pool width for cache misses")
    batch.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    batch.add_argument("--no-cache", action="store_true", help="execute without any result cache")

    cache = sub.add_parser("cache", help="inspect or clear the scenario result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="show entry counts and sizes")
    cache_stats.add_argument("--cache-dir", default=None)
    cache_stats.add_argument("--json", action="store_true")
    cache_clear = cache_sub.add_parser("clear", help="remove every cached result")
    cache_clear.add_argument("--cache-dir", default=None)
    cache_purge = cache_sub.add_parser(
        "purge", help="remove only entries from other engine schema versions or cache layouts"
    )
    cache_purge.add_argument("--cache-dir", default=None)

    serve = sub.add_parser(
        "serve", help="run the HTTP/JSON scenario service in the foreground"
    )
    service_main.add_arguments(serve)

    load = sub.add_parser(
        "load", help="replay the seeded scenario corpus against a service"
    )
    load.add_argument(
        "--corpus",
        default="benchmarks/load/corpus.json",
        help="corpus file (a JSON array of scenario objects)",
    )
    load.add_argument("--concurrency", type=int, default=4)
    load.add_argument(
        "--smoke",
        action="store_true",
        help="smoke tier: first 8 corpus entries, concurrency 2, 2000 ms p95 budget",
    )
    load.add_argument(
        "--p95-budget-ms",
        type=float,
        default=None,
        help="fail (exit 1) when the warm /v1/simulate p95 exceeds this",
    )
    load.add_argument(
        "--server",
        default=None,
        help="host:port of a running service (default: spawn a fresh cold one)",
    )
    load.add_argument("--report", default=None, help="write the full JSON report here")
    load.add_argument("--json", action="store_true", help="print the full JSON report")
    load.add_argument(
        "--generate",
        action="store_true",
        help="deterministically (re)generate the corpus file and exit",
    )
    load.add_argument("--seed", type=int, default=0, help="corpus generation seed")
    load.add_argument(
        "--unique", type=int, default=24, help="unique specs when generating"
    )
    load.add_argument(
        "service_args",
        nargs=argparse.REMAINDER,
        help=(
            "after --: flags of python -m repro.service for the spawned service, "
            "e.g. -- --workers 1 --deadline-ms 1500"
        ),
    )
    return parser


def _run_one(experiment_id: str, scale: str, seed: int, csv_dir: str | None) -> None:
    from .experiments.registry import get_experiment

    spec = get_experiment(experiment_id)
    start = time.perf_counter()
    table = spec(scale=scale, seed=seed)
    elapsed = time.perf_counter() - start
    print(table.render())
    print(f"[{spec.id}] completed in {elapsed:.1f}s at scale={scale!r}, seed={seed}")
    if csv_dir is not None:
        os.makedirs(csv_dir, exist_ok=True)
        path = os.path.join(csv_dir, f"{spec.id.lower()}_{scale}.csv")
        table.write_csv(path)
        print(f"[{spec.id}] wrote {path}")
    print()


def _apply_observation_flags(spec, args: argparse.Namespace):
    """Fold --record/--record-every into the spec.

    These are run-shaping overrides (like --seed), accepted both inline
    and on top of a scenario file.
    """
    if args.record is not None:
        names = [name.strip() for name in args.record.split(",") if name.strip()]
        if not names:
            raise SystemExit("--record needs at least one metric name (see `repro metrics`)")
        every = args.record_every if args.record_every is not None else 1
        spec = spec.with_overrides(record={"metrics": names, "every": every})
    elif args.record_every is not None:
        if spec.record is None:
            raise SystemExit("--record-every needs --record or a record in the scenario file")
        spec = spec.with_overrides(record={**spec.record, "every": args.record_every})
    return spec


def _spec_from_args(args: argparse.Namespace):
    from .scenario import ScenarioSpec

    overrides = {
        key: value
        for key, value in (
            ("replicas", args.replicas),
            ("max_rounds", args.max_rounds),
            ("engine", args.engine),
            ("seed", args.seed),
        )
        if value is not None
    }
    if args.scenario is not None:
        spec = ScenarioSpec.from_file(args.scenario)
        inline_only = (
            "dynamics",
            "initial",
            "adversary",
            "topology",
            "n",
            "k",
            "dynamics_params",
            "initial_params",
            "adversary_params",
            "topology_params",
            "stopping",
        )
        clashes = [name for name in inline_only if getattr(args, name) is not None]
        if clashes:
            flags = ", ".join("--" + name.replace("_", "-") for name in clashes)
            raise SystemExit(
                f"{flags} cannot be combined with a scenario file; "
                "edit the file or drop the flags (only --replicas/--max-rounds/--seed/"
                "--engine/--record/--record-every override a file)"
            )
        spec = spec.with_overrides(**overrides) if overrides else spec
        return _apply_observation_flags(spec, args)
    if args.dynamics is None or args.n is None or args.k is None:
        raise SystemExit("inline scenarios need at least --dynamics, --n and --k")
    fields = dict(
        dynamics=args.dynamics,
        n=args.n,
        k=args.k,
        dynamics_params=args.dynamics_params or {},
        initial_params=args.initial_params or {},
        adversary=args.adversary,
        adversary_params=args.adversary_params or {},
        topology=args.topology,
        topology_params=args.topology_params or {},
        stopping=args.stopping,
        **overrides,
    )
    if args.initial is not None:
        fields["initial"] = args.initial
    return _apply_observation_flags(ScenarioSpec(**fields), args)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scenario import simulate_ensemble
    from .serve.cache import cache_key
    from .serve.envelope import simulate_payload
    from .serve.executor import FROM_RUN

    spec = _spec_from_args(args)
    start = time.perf_counter()
    ens = simulate_ensemble(spec)  # resolves the spec: an invalid one raises here
    elapsed = time.perf_counter() - start
    if args.save_spec:
        spec.save(args.save_spec)
    if args.json:
        # The /v1/simulate body for this spec; an unseeded spec has no key.
        key = None if spec.seed is None else cache_key(spec)
        document = {**simulate_payload(key, FROM_RUN, ens, spec), "wall_seconds": elapsed}
        print(json.dumps(document, indent=2, sort_keys=True, allow_nan=False))
        return 0
    engine_note = "" if spec.engine == "auto" else f", engine={spec.engine}"
    print(
        f"scenario: {spec.dynamics} on {spec.initial} "
        f"(n={spec.n}, k={spec.k}, replicas={spec.replicas}, seed={spec.seed}{engine_note})"
    )
    if spec.topology:
        params = f" {spec.topology_params}" if spec.topology_params else ""
        print(f"topology: {spec.topology}{params}")
    if spec.adversary:
        print(f"adversary: {spec.adversary} {spec.adversary_params}")
    if spec.stopping:
        print(f"stopping: {spec.stopping}")
    print(
        f"plurality win rate {ens.plurality_win_rate:.3f}, "
        f"convergence rate {ens.convergence_rate:.3f}"
    )
    print(
        "rounds: "
        + ", ".join(f"{key}={value:.1f}" for key, value in ens.rounds_summary().items())
    )
    reasons = ", ".join(f"{name}×{count}" for name, count in sorted(ens.stop_reasons().items()))
    print(f"stopped by: {reasons}")
    if ens.trace is not None:
        trace = ens.trace
        print(
            f"recorded: {', '.join(trace.metrics)} "
            f"({trace.n_rounds} rounds, every={trace.every}, "
            f"digest {trace.digest()[:12]})"
        )
    print(f"completed in {elapsed:.2f}s")
    return 0


def _open_cache(cache_dir: str | None):
    from .serve.cache import ResultCache, default_cache_dir

    return ResultCache(cache_dir if cache_dir is not None else default_cache_dir())


def _cmd_batch(args: argparse.Namespace) -> int:
    from .serve.executor import batch_document, batch_entries, run_batch

    with open(args.specs, encoding="utf-8") as handle:
        body = json.load(handle)
    try:
        entries = batch_entries(body)
    except ValueError as exc:
        raise SystemExit(f"{args.specs}: {exc}") from None
    cache = None if args.no_cache else _open_cache(args.cache_dir)
    # A malformed or unrunnable item comes back as its own error envelope
    # (the shape the service wire format uses); its siblings still run.
    report = run_batch(entries, cache=cache, processes=args.processes)
    document = batch_document(report.items, report.wall_seconds)
    exit_code = 0 if document["errors"] == 0 else 1
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True, allow_nan=False))
        return exit_code
    for spec, item in zip(report.specs, document["items"]):
        if item["error"] is not None:
            print(f"[error] {item['error']['type']}: {item['error']['message']}")
            continue
        mean = item["rounds_summary"]["mean"]
        print(
            f"[{item['source']:5s}] {item['key'][:12]}  "
            f"{spec.dynamics} n={spec.n} k={spec.k} "
            f"win={item['plurality_win_rate']:.3f} "
            f"rounds_mean={'n/a' if mean is None else format(mean, '.1f')}"
        )
    retries = sum(report.retries.values())
    retry_note = f", {retries} worker retries" if retries else ""
    print(
        f"{document['requests']} requests ({document['unique']} unique): "
        f"{document['hits']} cache hits, {document['misses']} executed, "
        f"{document['deduped']} deduped, {document['errors']} failed{retry_note} "
        f"in {document['wall_seconds']:.2f}s"
    )
    return exit_code


def _parse_server(server: str) -> tuple[str, int]:
    """Accept ``host:port`` or ``http://host:port`` for ``repro load --server``."""
    text = server
    if "//" in text:
        text = text.split("//", 1)[1]
    host, sep, port = text.rstrip("/").rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--server must be host:port or http://host:port, got {server!r}")
    return host, int(port)


def _cmd_load(args: argparse.Namespace) -> int:
    from .service.load import SMOKE_CONCURRENCY, SMOKE_ENTRIES, drive, write_corpus

    if args.generate:
        entries = write_corpus(args.corpus, seed=args.seed, unique=args.unique)
        print(f"wrote {entries} scenarios to {args.corpus} (seed={args.seed})")
        return 0
    with open(args.corpus, encoding="utf-8") as handle:
        specs = json.load(handle)
    if not isinstance(specs, list) or not specs:
        raise SystemExit(f"{args.corpus} must hold a non-empty JSON array of scenarios")
    concurrency = args.concurrency
    budget = args.p95_budget_ms
    if args.smoke:
        specs = specs[:SMOKE_ENTRIES]
        concurrency = min(concurrency, SMOKE_CONCURRENCY)
        if budget is None:
            budget = 2000.0
    service_args = args.service_args
    if service_args[:1] == ["--"]:  # argparse keeps the separator before a REMAINDER
        service_args = service_args[1:]
    report = drive(
        specs,
        concurrency=concurrency,
        server=None if args.server is None else _parse_server(args.server),
        p95_budget_ms=budget,
        service_args=service_args,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    degraded = report.get("degraded", {})
    ok = (
        report["replay_identical"]
        and report.get("budget", {}).get("within_budget", True)
        and degraded.get("ok", True)
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if ok else 1
    for phase in ("cold", "warm", "lookup"):
        summary = report["phases"][phase]
        latency = summary["latency_ms"]
        sources = ", ".join(f"{k}×{v}" for k, v in sorted(summary["sources"].items()))
        print(
            f"{phase:6s} {summary['requests']:4d} requests in {summary['wall_seconds']:.2f}s "
            f"({summary['rps']:.1f} req/s)  p50={latency['p50']:.1f}ms "
            f"p95={latency['p95']:.1f}ms p99={latency['p99']:.1f}ms  [{sources}]"
        )
    print(
        f"replay identical: {report['replay_identical']}  "
        f"cache hit rate: {report['server_stats']['cache_hit_rate']}  "
        f"coalesced: {report['server_stats']['coalesced']}"
    )
    if degraded:
        statuses = ", ".join(f"{k}×{v}" for k, v in sorted(degraded["statuses"].items()))
        print(
            f"degraded ok: {degraded['ok']}  retried: {degraded['retried']}  "
            f"shed: {degraded['shed']}  deadline hits: {degraded['deadline_hits']}  "
            f"worker retries: {degraded['worker_retries']}  "
            f"quarantined: {degraded['cache_quarantined']}  [{statuses}]"
        )
    if "budget" in report:
        verdict = "within" if report["budget"]["within_budget"] else "OVER"
        print(
            f"warm p95 {report['budget']['warm_p95_ms']:.1f}ms is {verdict} the "
            f"{report['budget']['p95_budget_ms']:.0f}ms budget"
        )
    return 0 if ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.cache_command == "purge":
        removed = cache.purge_stale()
        print(
            f"removed {removed} stale results (schema != {cache.schema_version}, "
            f"or an older layout) from {cache.root}"
        )
        return 0
    stats = cache.stats()
    if getattr(args, "json", False):
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache root:     {stats['root']}")
    print(f"schema version: {stats['schema_version']}")
    print(f"disk entries:   {stats['disk_entries']} ({stats['disk_bytes']} bytes)")
    return 0


def _cmd_metrics(as_json: bool) -> int:
    from .core.registry import METRICS

    import repro.core.metrics  # noqa: F401 — import registers METRICS

    if as_json:
        import numpy as np

        payload = {}
        for name, entry in METRICS.items():
            metric = entry.factory()
            payload[name] = {
                "summary": entry.summary,
                "dtype": np.dtype(metric.dtype).name,
                "vector": bool(metric.vector),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("metrics (usable in ScenarioSpec record= / repro simulate --record):")
    for name, entry in METRICS.items():
        metric = entry.factory()
        shape = "(k,)" if metric.vector else "scalar"
        print(f"  {name:20s} {shape:7s} {entry.summary}")
    return 0


def _cmd_topologies(as_json: bool) -> int:
    from .core.registry import TOPOLOGIES
    from .graphs import topology  # noqa: F401 — import registers TOPOLOGIES

    if as_json:
        payload = {
            name: {
                "summary": entry.summary,
                "params": [p for p in entry.parameter_names() if p != "n"],
            }
            for name, entry in TOPOLOGIES.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("topologies (usable in ScenarioSpec topology= / repro simulate --topology):")
    for name, entry in TOPOLOGIES.items():
        params = ", ".join(p for p in entry.parameter_names() if p != "n")
        suffix = f"  [{params}]" if params else ""
        print(f"  {name:20s} {entry.summary}{suffix}")
    return 0


def _cmd_scenarios(as_json: bool) -> int:
    from .core.registry import ADVERSARIES, DYNAMICS, METRICS, STOPPING, TOPOLOGIES, WORKLOADS
    from .scenario import ScenarioSpec

    if as_json:
        print(json.dumps(ScenarioSpec.registries(), indent=2, sort_keys=True))
        return 0
    for title, registry in (
        ("dynamics", DYNAMICS),
        ("workloads (initial)", WORKLOADS),
        ("adversaries", ADVERSARIES),
        ("topologies", TOPOLOGIES),
        ("stopping rules", STOPPING),
        ("metrics (record)", METRICS),
    ):
        print(f"{title}:")
        for name, entry in registry.items():
            params = ", ".join(p for p in entry.parameter_names() if p not in ("n", "k"))
            suffix = f"  [{params}]" if params else ""
            print(f"  {name:22s} {entry.summary}{suffix}")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        from .experiments.registry import ALL_EXPERIMENTS

        for spec in ALL_EXPERIMENTS.values():
            print(f"{spec.id:4s} {spec.title}")
        return 0
    if args.command == "describe":
        from .experiments.registry import get_experiment

        spec = get_experiment(args.experiment)
        print(f"{spec.id}: {spec.title}")
        print(f"tags: {', '.join(spec.tags)}")
        print()
        print(spec.claim)
        return 0
    if args.command == "run":
        from .experiments.registry import ALL_EXPERIMENTS

        targets = (
            list(ALL_EXPERIMENTS) if args.experiment.lower() == "all" else [args.experiment]
        )
        for experiment_id in targets:
            _run_one(experiment_id, args.scale, args.seed, args.csv_dir)
        return 0
    if args.command == "plot":
        from .experiments.figures import FIGURES, render_figure

        targets = list(FIGURES) if args.figure.lower() == "all" else [args.figure]
        for figure_id in targets:
            print(render_figure(figure_id, scale=args.scale, seed=args.seed))
            print()
        return 0
    if args.command == "scenarios":
        return _cmd_scenarios(args.json)
    if args.command == "metrics":
        return _cmd_metrics(args.json)
    if args.command == "topologies":
        return _cmd_topologies(args.json)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return service_main.serve(args)
    if args.command == "load":
        return _cmd_load(args)
    return 2  # pragma: no cover — argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())

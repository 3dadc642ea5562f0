"""Run the scenario service: ``python -m repro.service [options]``.

``repro serve`` takes the same flags (:func:`add_arguments`) and runs the
same coroutine (:func:`serve`).  asyncio and the service stack are
imported only when :func:`serve` runs, so the ``repro`` CLI can build its
parser from this module without them.

Shutdown semantics: SIGTERM drains gracefully (stop accepting, finish
in-flight work within ``--drain-grace`` seconds, then close) — the
orchestrator-friendly path; SIGINT (Ctrl-C) stops immediately.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys

from .. import faults
from ..serve.cache import DEFAULT_MEMORY_ENTRIES, ResultCache, default_cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="HTTP/JSON scenario service over the repro.serve substrate",
    )
    add_arguments(parser)
    return parser


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The service's flags, shared with ``repro serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321, help="0 picks a free port")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="serve without any result cache"
    )
    parser.add_argument(
        "--memory-entries",
        type=int,
        default=DEFAULT_MEMORY_ENTRIES,
        help=(
            "in-memory LRU capacity of the result cache (entries); small values "
            "force disk reads, which is how the chaos smoke exercises the "
            "corruption-quarantine path"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "process-pool width for cache misses; 0 (default) executes misses "
            "on in-process threads"
        ),
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "default per-request deadline for the work endpoints (ms); exceeded "
            "deadlines answer 504.  Clients can override per request with an "
            "x-deadline-ms header"
        ),
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=0,
        help=(
            "concurrent-work cap; excess work requests are shed with 429 + "
            "Retry-After.  0 (default) = unbounded"
        ),
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        help="seconds before one worker attempt counts as stalled and retries",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds SIGTERM waits for in-flight work before closing",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        help=(
            "arm a repro.faults plan in the service and its pool workers: inline "
            "JSON or @path/to/plan.json (sets $REPRO_FAULT_PLAN, which also arms it)"
        ),
    )


async def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from .app import ScenarioService

    if args.fault_plan:
        # One carrier for the plan: the variable arms this process now and
        # every pool worker the executor spawns later.
        os.environ[faults.ENV_VAR] = args.fault_plan
        faults.arm_from_env()
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            args.cache_dir if args.cache_dir else default_cache_dir(),
            memory_entries=args.memory_entries,
        )
    service = ScenarioService(
        cache,
        workers=args.workers,
        deadline_seconds=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        max_in_flight=args.max_in_flight,
        worker_timeout=args.worker_timeout,
    )
    host, port = await service.start(args.host, args.port)
    print(f"repro-service listening on http://{host}:{port}", flush=True)

    # SIGINT stops now; SIGTERM drains (finish in-flight within the grace
    # budget) — the contract process supervisors expect.
    stop = asyncio.Event()
    drain = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError):
        loop.add_signal_handler(signal.SIGINT, stop.set)
    with contextlib.suppress(NotImplementedError):
        loop.add_signal_handler(signal.SIGTERM, drain.set)
    waiters = [
        asyncio.create_task(stop.wait(), name="stop"),
        asyncio.create_task(drain.wait(), name="drain"),
    ]
    done, pending = await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
    for task in pending:
        task.cancel()
    if drain.is_set():
        drained = await service.drain(args.drain_grace)
        print(
            f"repro-service drained ({'clean' if drained else 'grace expired'})",
            flush=True,
        )
    else:
        await service.close()
    return 0


def serve(args: argparse.Namespace) -> int:
    """Run the service in the foreground until SIGINT or a SIGTERM drain."""
    import asyncio

    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

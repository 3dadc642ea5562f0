"""ensemble-clique: the paper's process through ``simulate_ensemble``, one call at a time.

The library runs in a process of its own.  The parent starts it, times
start-up to the first answered probe (``setup_s``), then hands it the
workload seed; the child generates the corpus, runs it, checks every
result and reports per-operation records on its last stdout line.

Child protocol: ``python3 -m perfbench.ensemble --child --probe I`` prints
``ready`` after the probe, then reads one JSON command line from stdin:
``{"mode": "stop"}``, ``{"mode": "timed", ...}`` or ``{"mode": "traced", ...}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

from . import gen
from .common import ROOT, SRC, child_env, median, sliced_quantile, sliced_rate, vm_hwm_mb
from .metrics import engine_layers

#: Operations in the traced run's fixed list: four full template cycles.
TRACED_CYCLES = 4
#: Traced/untraced pass pairs used for the tracing-overhead estimate.
OVERHEAD_PAIRS = 2


# -- child side ----------------------------------------------------------------


def check(spec: dict, result) -> list[str]:
    """Invariants every ensemble result must satisfy; returns the violations."""
    import numpy as np

    problems = []
    n, k, replicas = spec["n"], spec["k"], spec["replicas"]
    if result.replicas != replicas:
        problems.append(f"{result.replicas} replicas, expected {replicas}")
    if result.rounds.min() < 0 or result.rounds.max() > spec["max_rounds"]:
        problems.append("rounds outside [0, max_rounds]")
    winners = result.winners
    if np.any((winners < -1) | (winners >= k)):
        problems.append("winner outside [-1, k)")
    if np.any(result.converged != (winners >= 0)):
        problems.append("winner set without convergence (or the reverse)")
    counts = result.final_counts
    if counts is None or counts.shape != (replicas, k):
        problems.append("final_counts missing or misshapen")
    else:
        sums = counts.sum(axis=1)
        if spec["dynamics"] == "undecided-state":
            # Undecided agents are extra state outside the k colour counts.
            bad = np.any(sums > n) or np.any(sums[result.converged] != n)
        else:
            bad = np.any(sums != n)
        if bad or np.any(counts < 0):
            problems.append("final counts do not sum to n")
        conv = result.converged
        if np.any(counts[conv, winners[conv]] != n):
            problems.append("converged winner does not hold all n agents")
    if (spec.get("record") is not None) != (result.trace is not None):
        problems.append("trace presence does not match the spec's record")
    return problems


def fold(digest, result) -> None:
    """Fold one result into the run digest (stable across commits at equal schema)."""
    import numpy as np

    for array in (result.rounds, result.winners, result.converged, result.final_counts):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    digest.update((result.trace.digest() if result.trace is not None else "-").encode())


def _timed(seed: int, seconds: float) -> dict:
    import repro.scenario as scenario

    records, problems = [], []
    digest = hashlib.sha256()
    stream = gen.ensemble_stream(seed)
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    for index, (family, spec) in enumerate(stream):
        if index and end >= deadline:
            break
        t0 = time.perf_counter()
        try:
            result = scenario.simulate_ensemble(scenario.ScenarioSpec.from_dict(spec))
        except Exception as exc:  # noqa: BLE001 — counted as a failed operation
            end = time.perf_counter()
            records.append((family, end - t0, 0, False, end - start))
            problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            continue
        end = time.perf_counter()
        bad = check(spec, result)
        problems += [f"op {index} ({family}): {p}" for p in bad]
        records.append((family, end - t0, int(result.rounds.sum()), not bad, end - start))
        if index < gen.ENSEMBLE_CYCLE:
            fold(digest, result)
    return {
        "records": records,
        "wall_s": end - start,
        "digest": digest.hexdigest(),
        "digest_ops": min(len(records), gen.ENSEMBLE_CYCLE),
        "problems": problems[:20],
    }


def _traced(seed: int, span_path: str | None) -> dict:
    import repro.scenario as scenario

    from .trace import Tracer, instrument

    ops = list(itertools.islice(gen.ensemble_stream(seed), TRACED_CYCLES * gen.ENSEMBLE_CYCLE))
    problems = []

    def one_pass(tracer: Tracer | None) -> tuple[float, dict[int, tuple[str, int]]]:
        meta = {}
        start = time.perf_counter()
        for index, (family, spec) in enumerate(ops):
            if tracer is None:
                result = scenario.simulate_ensemble(scenario.ScenarioSpec.from_dict(spec))
            else:
                tracer.op = index
                with tracer.span("ensemble.op"):
                    with tracer.span("scenario.parse"):
                        parsed = scenario.ScenarioSpec.from_dict(spec)
                    with tracer.span("scenario.simulate_ensemble"):
                        result = scenario.simulate_ensemble(parsed)
            meta[index] = (family, int(result.rounds.sum()))
            problems.extend(f"op {index} ({family}): {p}" for p in check(spec, result))
        return time.perf_counter() - start, meta

    one_pass(None)  # warm-up: lazily built tables and first-call costs
    plain = traced = 0.0
    for _ in range(OVERHEAD_PAIRS):
        tracer = Tracer()
        with instrument(tracer):
            seconds, meta = one_pass(tracer)
        traced += seconds
        plain += one_pass(None)[0]
    values = engine_layers(tracer, meta)
    values["trace.overhead_share"] = traced / plain - 1.0
    values["trace.spans"] = float(len(tracer.spans))
    if span_path:
        tracer.dump(Path(span_path))
    return {
        "values": values,
        "self_ms_per_op": {name: seconds * 1e3 / len(ops) for name, seconds in tracer.self_times().items()},
        "ops": len(ops),
        "replica_rounds": int(sum(rounds for _f, rounds in meta.values())),
        "problems": problems[:20],
    }


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", action="store_true")
    parser.add_argument("--probe", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import repro.scenario as scenario

    scenario.simulate_ensemble(scenario.ScenarioSpec.from_dict(gen.probe_spec(args.probe)))
    print("ready", flush=True)
    command = json.loads(sys.stdin.readline() or '{"mode": "stop"}')
    if command["mode"] == "timed":
        out = _timed(command["seed"], command["seconds"])
    elif command["mode"] == "traced":
        out = _traced(command["seed"], command.get("spans"))
    else:
        return 0
    out["peak_rss_mb"] = vm_hwm_mb()
    print(json.dumps(out), flush=True)
    return 0


# -- parent side -----------------------------------------------------------------


def _start(probe: int) -> tuple[subprocess.Popen, float]:
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.ensemble", "--child", "--probe", str(probe)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
        text=True,
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"library process did not start: {line!r}")
    return process, elapsed


def _finish(process: subprocess.Popen, command: dict, timeout: float) -> dict | None:
    try:
        out, _ = process.communicate(json.dumps(command) + "\n", timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"library process exited with {process.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def run(seed: int, seconds: float, trace: bool, *, setups: int, span_path: str | None) -> dict:
    """Returns ``{"attempted", "failed", "problems", "values", "info"}``."""
    setup_times = []
    for probe in range(setups):
        process, elapsed = _start(probe)
        setup_times.append(elapsed)
        if probe < setups - 1:
            _finish(process, {"mode": "stop"}, timeout=30)
    if trace:
        out = _finish(process, {"mode": "traced", "seed": seed, "spans": span_path}, timeout=150)
        values = dict(out["values"])
        return {
            "attempted": out["ops"],
            "failed": len(out["problems"]),
            "problems": out["problems"],
            "values": values,
            "info": {
                "replica_rounds": out["replica_rounds"],
                "ops": out["ops"],
                "self_ms_per_op": out["self_ms_per_op"],
            },
        }
    out = _finish(process, {"mode": "timed", "seed": seed, "seconds": seconds}, timeout=seconds + 120)
    records = out["records"]
    latencies_ms = [(end, latency * 1e3) for _f, latency, _r, _ok, end in records]
    ok = sum(1 for _f, _l, _r, good, _end in records if good)
    values = {
        "setup_s": median(setup_times),
        "ops_per_s": sliced_rate([(end, 1) for *_rest, end in records], out["wall_s"]),
        "latency_p50_ms": sliced_quantile(latencies_ms, out["wall_s"], 0.50),
        "latency_p95_ms": sliced_quantile(latencies_ms, out["wall_s"], 0.95),
        "replica_rounds_per_s": sliced_rate(
            [(end, rounds) for _f, _l, rounds, _ok, end in records], out["wall_s"]
        ),
        "ok_share": ok / len(records),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "problems": out["problems"],
        "values": values,
        "info": {
            "digest": out["digest"],
            "digest_ops": out["digest_ops"],
            "setup_samples_s": setup_times,
            "ops": len(records),
            "p99_ms": sliced_quantile(latencies_ms, out["wall_s"], 0.99),
        },
    }


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

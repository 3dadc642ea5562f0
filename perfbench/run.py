"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload ensemble-clique --seed 0 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``perfbench/README.md``).  The full result, stamped
with commit, seed, workload, CPU count and library versions, is also
written under the untracked ``.perfbench/results/``.  The exit code is 1
when any output fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("ensemble-clique", "service-cold")
#: Start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke scale: one set-up, small working sets"
    )
    args = parser.parse_args(argv)
    common.require_program()
    common.build()
    sys.path.insert(0, str(common.SRC))

    from perfbench import ensemble, service
    from perfbench.metrics import END_TO_END, PER_LAYER, render

    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_path = str(common.OUT / "spans" / f"{tag}.jsonl") if trace else None
    setups = 1 if (trace or args.tiny) else SETUPS
    if args.workload == "ensemble-clique":
        out = ensemble.run(args.seed, args.seconds, trace, setups=setups, span_path=span_path)
    else:
        out = service.run(args.seed, args.seconds, trace, setups=setups, tiny=args.tiny, span_path=span_path)
    correct = out["failed"] == 0 and not out["problems"]
    result = {
        "correct": correct,
        "attempted": int(out["attempted"]),
        # A mismatch found by a check outside the timed operations counts once.
        "failed": int(out["failed"] or (0 if correct else 1)),
        "metrics": render(out["values"], PER_LAYER if trace else END_TO_END),
    }
    record = {
        **result,
        "stamps": common.stamps(args.workload, args.seed, trace),
        "info": out["info"],
        "problems": out["problems"],
    }
    path = common.write_output(f"{tag}.json", record)
    for problem in out["problems"]:
        print(f"MISMATCH {problem}")
    for key, value in sorted(out["info"].items()):
        if not isinstance(value, (list, dict)):
            print(f"{key}: {value}")
    for name, ms in sorted(out["info"].get("self_ms_per_op", {}).items()):
        print(f"self time {name} = {ms:.4g} ms/op")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"full result: {path.relative_to(common.ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test for the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload at tiny scale, traced and untraced, and asserts that
each run is correct and prints every catalogued metric with its unit, that
``BENCHMARK.json`` matches the catalogue, that a directory holding only the
benchmark fails without printing a result, and that nothing the runs leave
behind shows in ``git status``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT, ROOT  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return out.stdout


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def check_run(workload: str, trace: int) -> None:
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in catalogue]
    for name, unit, *_ in catalogue:
        entry = result["metrics"][name]
        assert entry["unit"] == unit, (name, entry)
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), (name, entry)
        assert f"{name} = " in done.stdout and entry["unit"] in done.stdout


def check_without_program() -> None:
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = _run(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0, "benchmark ran without the program"
        assert '"metrics"' not in done.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    before = _git_status()
    check_catalogue()
    check_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}", flush=True)
    after = _git_status()
    assert before == after, f"the runs changed git status:\n{before}\n---\n{after}"
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

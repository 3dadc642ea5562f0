"""Shared helpers: checkout layout, environment stamps, statistics, /proc readers."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Untracked output directory (listed in the root ``.gitignore``).
OUT = ROOT / ".perfbench"


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_FAULT_PLAN", None)
    env["REPRO_CACHE_DIR"] = str(OUT / "unused-cache")
    return env


def build() -> None:
    """Byte-compile the program once per checkout so every run imports alike."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
        cwd=ROOT,
        env=child_env(),
    )


def src_digest() -> str:
    """sha256 over the program sources (the checkout is not always a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is itself a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def stamps(workload: str, seed: int, trace: bool) -> dict:
    """Environment stamp attached to every result."""
    from importlib.metadata import PackageNotFoundError, version

    def installed(package: str) -> str | None:
        try:
            return version(package)
        except PackageNotFoundError:
            return None

    return {
        "commit": commit(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": installed("numpy"),
        "networkx": installed("networkx"),
        "unix_time": round(time.time(), 3),
    }


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of client-side samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return quantile(values, 0.5)


#: Equal time slices a run is cut into; each metric is read per slice and
#: the median slice is reported, so a burst of contention from outside the
#: benchmark moves one slice, not the result.
SLICES = 5


def _slices(events, wall: float) -> list[list[float]]:
    """``(end_offset_s, value)`` events grouped by the slice they ended in."""
    width = wall / SLICES
    groups: list[list[float]] = [[] for _ in range(SLICES)]
    for end, value in events:
        groups[min(int(end / width), SLICES - 1)].append(value)
    return groups


def sliced_rate(events, wall: float) -> float:
    """Median over slices of summed ``value`` per second."""
    return median([sum(group) * SLICES / wall for group in _slices(events, wall)])


def sliced_quantile(events, wall: float, q: float) -> float:
    """Median over slices of the ``q``-quantile of the slice's values."""
    return median([quantile(group, q) for group in _slices(events, wall) if group])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (workers, resource trackers)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait until ``pids`` have exited; SIGKILL whatever outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        alive = [pid for pid in alive if _running(pid)]
        if alive:
            time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while any(_running(pid) for pid in alive) and time.monotonic() < deadline:
        time.sleep(0.02)


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text(encoding="ascii").rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def write_output(name: str, payload: dict) -> Path:
    path = OUT / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


"""Seeded, deterministic fault injection for the serving stack.

The paper's dynamics are robustness results; the serving stack around
them earns the same discipline only if its failure behavior is *testable*.
This module is the substrate: a process-wide registry of named
**injection points** threaded through the stack —

=============================  =================================================
point                          where it fires
=============================  =================================================
``executor.worker-crash``      :func:`repro.serve.executor._run_task`, before a
                               task runs (simulated worker death)
``executor.worker-stall``      same place; sleeps ``seconds`` (default 30)
``cache.read-error``           :meth:`ResultCache._disk_get` entry read
                               (simulated disk I/O failure)
``cache.corrupt-payload``      same place; flips bytes of the on-disk entry so
                               the checksum/quarantine path engages end to end
``service.connection-drop``    the service connection loop, before a response
                               is written (peer sees a dropped keep-alive)
``service.slow-response``      the service dispatch path; delays the response
                               by ``seconds`` (default 1.0)
=============================  =================================================

— activated by a :class:`FaultPlan`: a JSON list of rules, each naming a
point, a trigger (``probability`` p per hit, or ``nth`` hit), an optional
``times`` cap on total fires, and free-form ``params`` the call site
interprets.  The plan carries one ``seed``; every point draws from its own
``random.Random`` stream derived from ``sha256(seed, point)``, so a plan
fires identically run after run, process after process — fault behavior is
*replayable*, which is what makes failure tests deterministic instead of
hopeful.

Arming is per-process.  :func:`arm`/:func:`disarm` set the plan directly;
subprocess workers and spawned servers inherit it through the
``REPRO_FAULT_PLAN`` environment variable (inline JSON, or ``@path`` to a
plan file), read once at import.  When no plan is armed, :func:`fire` is a
single module-global ``None`` check — the injection points are off-path
free (benchmark-guarded in ``benchmarks/test_bench_service.py``).

Plan JSON::

    {"seed": 7,
     "rules": [
       {"point": "executor.worker-crash", "probability": 0.2},
       {"point": "cache.corrupt-payload", "nth": 3, "times": 1},
       {"point": "executor.worker-stall", "nth": 5, "times": 1,
        "params": {"seconds": 3.0}}
     ]}
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedWorkerCrash",
    "POINTS",
    "arm",
    "arm_from_env",
    "describe",
    "disarm",
    "fire",
]

#: Environment variable carrying the plan into subprocesses: inline JSON,
#: or ``@/path/to/plan.json``.
ENV_VAR = "REPRO_FAULT_PLAN"

#: The injection points wired through the stack (call sites listed above).
POINTS = (
    "executor.worker-crash",
    "executor.worker-stall",
    "cache.read-error",
    "cache.corrupt-payload",
    "service.connection-drop",
    "service.slow-response",
)


class InjectedFault(Exception):
    """Base of every exception an injection point raises.

    Call sites that convert *real* per-item exceptions into error
    envelopes re-raise this class, so an injected infrastructure failure
    stays retryable instead of being swallowed as a deterministic item
    error.
    """


class InjectedWorkerCrash(InjectedFault):
    """A worker failed a task (the soft form of a crash: the worker survives)."""


@dataclass(frozen=True)
class FaultRule:
    """One armed rule: when ``point`` is hit, should it fire?"""

    point: str
    probability: float | None = None
    nth: int | None = None
    times: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.point not in POINTS:
            raise ValueError(f"unknown fault point {self.point!r}; known: {POINTS}")
        if (self.probability is None) == (self.nth is None):
            raise ValueError(
                f"rule for {self.point!r} needs exactly one trigger: "
                "'probability' or 'nth'"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def to_dict(self) -> dict:
        out: dict = {"point": self.point}
        if self.probability is not None:
            out["probability"] = self.probability
        if self.nth is not None:
            out["nth"] = self.nth
        if self.times is not None:
            out["times"] = self.times
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise ValueError(f"fault rule must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"point", "probability", "nth", "times", "params"}
        if unknown:
            raise ValueError(f"unknown fault-rule keys {sorted(unknown)}")
        return cls(
            point=data.get("point", ""),
            probability=None if data.get("probability") is None else float(data["probability"]),
            nth=None if data.get("nth") is None else int(data["nth"]),
            times=None if data.get("times") is None else int(data["times"]),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the rule list; the unit that arms a process."""

    rules: tuple[FaultRule, ...]
    seed: int = 0

    def __post_init__(self):
        seen = set()
        for rule in self.rules:
            if rule.point in seen:
                raise ValueError(f"duplicate rule for point {rule.point!r}")
            seen.add(rule.point)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault-plan keys {sorted(unknown)}")
        rules = data.get("rules", [])
        if not isinstance(rules, list):
            raise ValueError("fault-plan 'rules' must be a JSON array")
        return cls(
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """A plan from inline JSON or ``@path/to/plan.json`` (the CLI and env form)."""
        text = text.strip()
        if text.startswith("@"):
            return cls.from_file(text[1:])
        return cls.from_json(text)


class _ArmedPlan:
    """Per-process runtime state: counters + per-point derived RNG streams."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rules = {rule.point: rule for rule in plan.rules}
        self.hits = {point: 0 for point in self.rules}
        self.fired = {point: 0 for point in self.rules}
        # One stdlib Random per point, derived from (plan seed, point name):
        # deterministic, and independent of every other randomness consumer
        # in the process (the engines' numpy streams are untouched).
        self.streams = {
            point: random.Random(
                int.from_bytes(
                    hashlib.sha256(f"{plan.seed}:{point}".encode()).digest()[:8], "big"
                )
            )
            for point in self.rules
        }

    def fire(self, point: str) -> FaultRule | None:
        rule = self.rules.get(point)
        if rule is None:
            return None
        self.hits[point] += 1
        if rule.times is not None and self.fired[point] >= rule.times:
            return None
        if rule.nth is not None:
            triggered = self.hits[point] == rule.nth
        else:
            triggered = self.streams[point].random() < rule.probability
        if not triggered:
            return None
        self.fired[point] += 1
        return rule


#: The armed plan, or None. A single global read keeps the disarmed
#: fast path to one dict-free branch per injection point.
_armed: _ArmedPlan | None = None


def arm(plan: FaultPlan | dict | str) -> FaultPlan:
    """Arm ``plan`` (a FaultPlan, plan dict, or JSON text) in this process.

    Re-arming resets every hit/fire counter, so a test can replay the
    exact same fault schedule.
    """
    global _armed
    if isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    elif isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    _armed = _ArmedPlan(plan)
    return plan


def disarm() -> None:
    """Drop the armed plan; every point goes back to off-path free."""
    global _armed
    _armed = None


def fire(point: str) -> FaultRule | None:
    """Should ``point`` fire on this hit?  None when disarmed or untriggered.

    This is the call every injection point makes; with no plan armed it is
    one global load and one branch.
    """
    if _armed is None:
        return None
    return _armed.fire(point)


def describe() -> dict | None:
    """JSON-able armed-plan state (what ``/v1/stats`` reports), or None."""
    if _armed is None:
        return None
    return {
        "seed": _armed.plan.seed,
        "points": {
            point: {"hits": _armed.hits[point], "fired": _armed.fired[point]}
            for point in sorted(_armed.rules)
        },
    }


def arm_from_env(environ=os.environ) -> FaultPlan | None:
    """Arm from ``$REPRO_FAULT_PLAN`` (inline JSON or ``@path``), if set.

    Called once at import, which is how spawn-context pool workers and
    ``python -m repro.service`` subprocesses inherit the parent's plan.
    """
    raw = environ.get(ENV_VAR)
    if not raw:
        return None
    return arm(FaultPlan.parse(raw))


arm_from_env()

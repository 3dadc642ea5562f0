"""Declarative scenarios: serializable specs + the ``simulate()`` facade.

Every claim of the paper quantifies over a *scenario*: a dynamics from the
h-dynamics family, an initial-configuration family, an optional F-bounded
adversary and a success/stopping predicate.  This module makes scenarios
*data* instead of hand-written object construction:

>>> from repro import ScenarioSpec, simulate_ensemble
>>> spec = ScenarioSpec(
...     dynamics="3-majority",
...     initial="paper-biased",
...     n=100_000,
...     k=8,
...     replicas=32,
...     seed=0,
... )
>>> ens = simulate_ensemble(spec)          # doctest: +SKIP
>>> spec == ScenarioSpec.from_json(spec.to_json())
True

Names are resolved through the string-keyed registries of
:mod:`repro.core.registry` (``repro scenarios`` lists them), parameters
are validated strictly against the target factory's signature, and
``to_dict``/``from_dict``/``to_json``/``from_json`` round-trip losslessly
— which is what makes scenarios shardable, cacheable and servable.  The
:func:`simulate` / :func:`simulate_ensemble` facades resolve a spec and
dispatch straight to :func:`repro.core.process.run_process` /
:func:`~repro.core.process.run_ensemble`, so at equal seed they reproduce
the direct Python API bit for bit (asserted in the tests, with the
dispatch overhead guarded in the benchmark suite).

Importing this module fills every registry a spec can name: the
dynamics, adversary, stopping and metric entries ride on
:mod:`repro.core`, and the workload and topology generators on
:mod:`repro.experiments.workloads` and :mod:`repro.graphs.topology`.
Both need only numpy and the standard library (``repro.experiments``
loads its experiment suite lazily), so resolving and running a spec
never imports scipy or networkx.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .core.adversary import Adversary
from .core.config import Configuration
from .core.dynamics import Dynamics
from .core.metrics import RecordSpec, as_record_spec
from .core.process import (
    ENSEMBLE_ENGINES,
    EnsembleResult,
    ProcessResult,
    run_ensemble,
    run_process,
)
from .core.registry import (
    ADVERSARIES,
    DYNAMICS,
    METRICS,
    STOPPING,
    TOPOLOGIES,
    WORKLOADS,
    checked_int,
)
from .core.stopping import StoppingRule, stopping_from_dict
from .experiments import workloads  # noqa: F401 — import registers WORKLOADS
from .graphs.topology import Topology  # import registers TOPOLOGIES

__all__ = ["ScenarioSpec", "ResolvedScenario", "simulate", "simulate_ensemble"]


def _checked_params(name: str, value: object) -> dict[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping of parameter names, got {value!r}")
    if not all(isinstance(key, str) for key in value):
        raise ValueError(f"{name} keys must be strings")
    return dict(value)


@dataclass(frozen=True)
class ResolvedScenario:
    """A spec's names resolved to live objects, ready for the runners.

    ``topology`` is a built :class:`~repro.graphs.topology.Topology` when
    the spec names one (the facades then dispatch to the graph engine of
    :mod:`repro.graphs.ensemble`), ``None`` for the counts-level clique
    runners.
    """

    dynamics: Dynamics
    initial: Configuration
    adversary: Adversary | None
    stopping: StoppingRule | None
    record: RecordSpec | None = None
    topology: object | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable simulation scenario.

    All object references are registry *names* (see ``repro scenarios``)
    plus nested parameter dicts, so a spec is plain data: JSON round-trips
    are lossless and strict (unknown keys, unknown names and invalid
    parameters are rejected with messages naming the accepted values).

    ``stopping`` is the serialized ``{"rule": <name>, **params}`` form of
    a :class:`~repro.core.stopping.StoppingRule`; passing a rule instance
    normalises it to that dict.  ``record`` is the serialized
    ``{"metrics": [...], "every": m}`` form of a
    :class:`~repro.core.metrics.RecordSpec` (metric names from ``repro
    metrics``); passing a RecordSpec or a plain list of names normalises
    it to that dict, and the resulting columnar
    :class:`~repro.core.metrics.TraceSet` lands on the result's ``trace``
    field.  ``engine`` selects :func:`~repro.core.process.run_ensemble`'s
    batch layout — ``"auto"`` (default), ``"dense"``, or the O(support)
    large-``k`` ``"sparse"`` mode; it changes how randomness is consumed,
    so it is part of the scenario's content address (``"auto"`` is
    omitted from the canonical JSON, like an unset ``record``).
    ``topology`` names a graph generator from ``repro topologies``
    (``topology_params`` its parameters, ``n`` is passed automatically):
    the scenario then runs agent-level on that graph through the
    replica-batched engine of :mod:`repro.graphs.ensemble` instead of the
    counts-level clique runners.  ``None`` (default) is the paper's
    clique model, and is omitted from the canonical JSON so every
    pre-topology cache key is preserved.  ``seed`` is the default stream
    for the :func:`simulate` facades (overridable per call).
    """

    dynamics: str
    n: int
    k: int
    initial: str = "balanced"
    dynamics_params: dict[str, Any] = field(default_factory=dict)
    initial_params: dict[str, Any] = field(default_factory=dict)
    adversary: str | None = None
    adversary_params: dict[str, Any] = field(default_factory=dict)
    stopping: dict[str, Any] | None = None
    record: dict[str, Any] | None = None
    replicas: int = 1
    max_rounds: int = 1_000_000
    engine: str = "auto"
    topology: str | None = None
    topology_params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = 0

    def __post_init__(self):
        if not isinstance(self.dynamics, str) or not self.dynamics:
            raise ValueError(f"dynamics must be a registry name, got {self.dynamics!r}")
        if not isinstance(self.initial, str) or not self.initial:
            raise ValueError(f"initial must be a registry name, got {self.initial!r}")
        if self.adversary is not None and not isinstance(self.adversary, str):
            raise ValueError(f"adversary must be a registry name or None, got {self.adversary!r}")
        object.__setattr__(self, "n", checked_int("n", self.n, 1))
        object.__setattr__(self, "k", checked_int("k", self.k, 1))
        object.__setattr__(self, "replicas", checked_int("replicas", self.replicas, 1))
        object.__setattr__(self, "max_rounds", checked_int("max_rounds", self.max_rounds, 0))
        for name in ("dynamics_params", "initial_params", "adversary_params"):
            object.__setattr__(self, name, _checked_params(name, getattr(self, name)))
        stopping = self.stopping
        if isinstance(stopping, StoppingRule):
            stopping = stopping.to_dict()
        if stopping is not None:
            stopping = dict(_checked_params("stopping", stopping))
            if not isinstance(stopping.get("rule"), str):
                raise ValueError("stopping dict needs a string 'rule' key")
        object.__setattr__(self, "stopping", stopping)
        record = self.record
        if record is not None:
            # Normalise every accepted spelling (RecordSpec, name list,
            # dict) through RecordSpec validation to the serialized dict.
            record = as_record_spec(record).to_dict()
        object.__setattr__(self, "record", record)
        if self.engine not in ENSEMBLE_ENGINES:
            raise ValueError(
                f"engine must be one of {ENSEMBLE_ENGINES}, got {self.engine!r}"
            )
        if self.topology is not None and not isinstance(self.topology, str):
            raise ValueError(f"topology must be a registry name or None, got {self.topology!r}")
        object.__setattr__(
            self, "topology_params", _checked_params("topology_params", self.topology_params)
        )
        if self.topology is None and self.topology_params:
            raise ValueError("topology_params given without a topology name")
        if self.topology is not None and self.engine != "auto":
            raise ValueError(
                "graph scenarios run on the graph engine; engine must stay 'auto' "
                f"when topology is set (got engine={self.engine!r})"
            )
        if self.seed is not None:
            if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
                raise ValueError(f"seed must be an int or None, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the dict
        # fields; canonical (sorted-key, compact) JSON is the stable
        # identity — the same string the serve-layer cache keys on.
        return hash(self.canonical_json())

    def canonical_json(self) -> str:
        """Canonical identity string: compact JSON with sorted keys.

        Two specs are the same scenario iff their canonical JSON is equal;
        this is the string :mod:`repro.serve.cache` hashes into the
        content-addressed cache key.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able dict holding every field (lossless)."""
        out: dict[str, Any] = {
            "dynamics": self.dynamics,
            "n": self.n,
            "k": self.k,
            "initial": self.initial,
            "dynamics_params": dict(self.dynamics_params),
            "initial_params": dict(self.initial_params),
            "adversary": self.adversary,
            "adversary_params": dict(self.adversary_params),
            "stopping": json.loads(json.dumps(self.stopping)) if self.stopping else None,
            "replicas": self.replicas,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
        }
        if self.record is not None:
            # Only present when set: an unrecorded spec keeps the exact
            # pre-record canonical JSON, so its content-addressed cache
            # entries from older versions stay valid (the engine contract
            # did not change — recording never perturbs a run).
            out["record"] = json.loads(json.dumps(self.record))
        if self.engine != "auto":
            # Same discipline for the ensemble layout: "auto" (the
            # default, and the only value older specs could mean) is
            # omitted, so an explicit "dense"/"sparse" choice — which
            # changes how randomness is consumed — addresses its own cache
            # entries while auto specs keep their canonical identity.
            out["engine"] = self.engine
        if self.topology is not None:
            # Same discipline again: the clique (topology=None, the only
            # scenario older specs could express) is omitted, so every
            # pre-topology canonical JSON — and with it every existing
            # content-addressed cache key — is preserved verbatim, while a
            # graph scenario addresses its own entries.
            out["topology"] = self.topology
            out["topology_params"] = dict(self.topology_params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict`: unknown keys are rejected."""
        if not isinstance(data, Mapping):
            raise ValueError(f"scenario must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        missing = sorted({"dynamics", "n", "k"} - set(data))
        if missing:
            raise ValueError(f"scenario is missing required keys: {', '.join(missing)}")
        return cls(**dict(data))

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"scenario JSON does not parse: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    # -- resolution ----------------------------------------------------------

    def resolve(self) -> ResolvedScenario:
        """Resolve all names through the registries into live objects."""
        dynamics = DYNAMICS.build(self.dynamics, **self.dynamics_params)
        if not isinstance(dynamics, Dynamics):
            raise TypeError(f"dynamics {self.dynamics!r} did not build a Dynamics")
        initial = WORKLOADS.build(self.initial, self.n, self.k, **self.initial_params)
        if not isinstance(initial, Configuration):
            raise TypeError(f"workload {self.initial!r} did not build a Configuration")
        if initial.n != self.n or initial.k != self.k:
            raise ValueError(
                f"workload {self.initial!r} produced (n={initial.n}, k={initial.k}), "
                f"expected (n={self.n}, k={self.k})"
            )
        adversary = None
        if self.adversary is not None:
            adversary = ADVERSARIES.build(self.adversary, **self.adversary_params)
            if not isinstance(adversary, Adversary):
                raise TypeError(f"adversary {self.adversary!r} did not build an Adversary")
        stopping = stopping_from_dict(self.stopping) if self.stopping is not None else None
        record = None
        if self.record is not None:
            record = as_record_spec(self.record)
            record.resolve()  # validate every metric name against METRICS
        topology = None
        if self.topology is not None:
            from .graphs.ensemble import graph_ineligibility

            if adversary is not None:
                raise ValueError(
                    "adversaries are not supported on graph topologies yet; "
                    "drop the adversary or the topology"
                )
            reason = graph_ineligibility(dynamics, self.k)
            if reason is not None:
                raise ValueError(f"topology {self.topology!r} unavailable: {reason}")
            topology = TOPOLOGIES.build(self.topology, self.n, **self.topology_params)
            if not isinstance(topology, Topology):
                raise TypeError(f"topology {self.topology!r} did not build a Topology")
            if topology.n != self.n:
                raise ValueError(
                    f"topology {self.topology!r} built {topology.n} nodes, expected n={self.n}"
                )
        return ResolvedScenario(
            dynamics=dynamics,
            initial=initial,
            adversary=adversary,
            stopping=stopping,
            record=record,
            topology=topology,
        )

    def validate(self) -> "ScenarioSpec":
        """Check every name and parameter by resolving once; returns self."""
        self.resolve()
        return self

    @staticmethod
    def registries() -> dict[str, list[str]]:
        """Registered names per component kind (what ``repro scenarios`` shows)."""
        return {
            "dynamics": DYNAMICS.names(),
            "workloads": WORKLOADS.names(),
            "adversaries": ADVERSARIES.names(),
            "stopping": STOPPING.names(),
            "metrics": METRICS.names(),
            "topologies": TOPOLOGIES.names(),
        }


def simulate(
    spec: ScenarioSpec,
    *,
    rng: int | np.random.Generator | None = None,
) -> ProcessResult:
    """Run one trajectory of ``spec`` (seed from the spec unless ``rng`` given).

    Thin facade over :func:`repro.core.process.run_process`: at equal seed
    the result is bit-identical to building the objects by hand.  The
    spec's ``record`` field selects the metrics traced into
    ``ProcessResult.trace``.  The spec's ``engine`` field is an
    ensemble-layout choice and does not apply to a single trajectory.
    Specs naming a ``topology`` dispatch to the agent-level graph runner
    (:func:`~repro.graphs.ensemble.run_graph_process`) with the same
    result/trace contract.
    """
    resolved = spec.resolve()
    if resolved.topology is not None:
        from .graphs.ensemble import run_graph_process

        return run_graph_process(
            resolved.dynamics,
            resolved.topology,
            resolved.initial,
            max_rounds=spec.max_rounds,
            stopping=resolved.stopping,
            record=resolved.record,
            rng=spec.seed if rng is None else rng,
        )
    return run_process(
        resolved.dynamics,
        resolved.initial,
        max_rounds=spec.max_rounds,
        adversary=resolved.adversary,
        stopping=resolved.stopping,
        record=resolved.record,
        rng=spec.seed if rng is None else rng,
    )


def simulate_ensemble(
    spec: ScenarioSpec,
    *,
    rng: int | np.random.Generator | None = None,
    batch: bool = True,
) -> EnsembleResult:
    """Run ``spec.replicas`` trajectories of ``spec`` through the batched kernels.

    Thin facade over :func:`repro.core.process.run_ensemble`; the
    ``replicas``/``max_rounds``/``seed`` knobs come from the spec, with
    ``rng`` overriding the seed for callers that thread their own streams.
    Specs naming a ``topology`` dispatch to the replica-batched graph
    engine (:func:`~repro.graphs.ensemble.run_graph_ensemble`), which
    returns the same :class:`~repro.core.process.EnsembleResult` contract
    — stopping rules, traces and the serve cache work unchanged.
    """
    resolved = spec.resolve()
    if resolved.topology is not None:
        from .graphs.ensemble import run_graph_ensemble

        return run_graph_ensemble(
            resolved.dynamics,
            resolved.topology,
            resolved.initial,
            spec.replicas,
            max_rounds=spec.max_rounds,
            stopping=resolved.stopping,
            record=resolved.record,
            rng=spec.seed if rng is None else rng,
            batch=batch,
        )
    return run_ensemble(
        resolved.dynamics,
        resolved.initial,
        spec.replicas,
        max_rounds=spec.max_rounds,
        adversary=resolved.adversary,
        stopping=resolved.stopping,
        record=resolved.record,
        rng=spec.seed if rng is None else rng,
        batch=batch,
        engine=spec.engine,
    )

"""Experiment harness: scales, specs, and the sweep runner.

Every experiment module exposes an :class:`ExperimentSpec` whose ``run``
callable maps ``(scale, seed)`` to a :class:`ResultTable`.  Scales keep a
single code path honest at three budgets:

* ``smoke`` — seconds; exercised by the integration tests;
* ``small`` — default CLI scale, tens of seconds;
* ``paper`` — the scale of the paper's own claims (PAPER.md).

:func:`sweep` is the shared inner loop: a cartesian or explicit list of
parameter points, each measured over a replica ensemble with an
independent derived seed, returning per-point summaries.  A point's
``build`` callable may return either the classic ``(dynamics, initial)``
pair or a declarative :class:`~repro.scenario.ScenarioSpec` — specs are
resolved through the registries and run via
:func:`~repro.scenario.simulate_ensemble`, with the sweep's
``replicas``/``max_rounds``/derived-seed discipline overriding the
spec's own run knobs so scale presets stay authoritative.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from ..core.config import Configuration
from ..core.dynamics import Dynamics
from ..core.process import EnsembleResult, run_ensemble
from ..core.rng import derive_seed, make_rng
from ..scenario import ScenarioSpec, simulate_ensemble
from .results import ResultTable

__all__ = [
    "SCALES",
    "ExperimentSpec",
    "SweepPoint",
    "sweep",
    "grid",
]

#: Recognised scale presets, ordered by budget.
SCALES = ("smoke", "small", "paper")


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata + entry point of one experiment (one paper claim)."""

    id: str
    title: str
    claim: str
    run: Callable[[str, int], ResultTable]
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __call__(self, scale: str = "small", seed: int = 0) -> ResultTable:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        return self.run(scale, seed)


@dataclass
class SweepPoint:
    """One measured parameter point of a sweep."""

    params: dict[str, object]
    ensemble: EnsembleResult
    wall_seconds: float


def sweep(
    points: Iterable[Mapping[str, object]],
    build: Callable[[Mapping[str, object]], ScenarioSpec | tuple[Dynamics, Configuration]],
    *,
    replicas: int,
    max_rounds: int,
    seed: int,
    experiment_id: str,
) -> list[SweepPoint]:
    """Measure an ensemble at every parameter point.

    Parameters
    ----------
    points:
        The sweep grid: a sequence of parameter dicts.
    build:
        Maps a parameter point to ``(dynamics, initial_configuration)``
        or to a :class:`~repro.scenario.ScenarioSpec` (whose
        replicas/max_rounds/seed are overridden by the sweep's own).
    seed / experiment_id:
        Combined through :func:`~repro.core.rng.derive_seed` with the point
        index, so each point gets an independent, reproducible stream.
    """
    out: list[SweepPoint] = []
    for idx, params in enumerate(points):
        built = build(params)
        stream_seed = derive_seed(seed, experiment_id, idx)
        start = time.perf_counter()
        if isinstance(built, ScenarioSpec):
            spec = built.with_overrides(replicas=replicas, max_rounds=max_rounds)
            ens = simulate_ensemble(spec, rng=make_rng(stream_seed))
        else:
            dynamics, initial = built
            ens = run_ensemble(
                dynamics, initial, replicas, max_rounds=max_rounds, rng=make_rng(stream_seed)
            )
        out.append(
            SweepPoint(
                params=dict(params),
                ensemble=ens,
                wall_seconds=time.perf_counter() - start,
            )
        )
    return out


def grid(**axes: Sequence[object]) -> list[dict[str, object]]:
    """Cartesian product of named axes, in row-major order."""
    names = list(axes)
    points: list[dict[str, object]] = [{}]
    for name in names:
        points = [{**p, name: v} for p in points for v in axes[name]]
    return points

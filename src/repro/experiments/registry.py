"""Registry mapping experiment ids to their specs (the E-index ``repro list`` prints)."""

from __future__ import annotations

from .e01_drift import SPEC as E1
from .e02_upper_bound import SPEC as E2
from .e03_polylog import SPEC as E3
from .e04_lower_bound import SPEC as E4
from .e05_uniqueness import SPEC as E5
from .e06_hplurality import SPEC as E6
from .e07_bias_tightness import SPEC as E7
from .e08_adversary import SPEC as E8
from .e09_landscape import SPEC as E9
from .e10_phases import SPEC as E10
from .e11_crossmodel import SPEC as E11
from .e12_meanfield import SPEC as E12
from .e13_topology import SPEC as E13
from .harness import ExperimentSpec

__all__ = ["ALL_EXPERIMENTS", "get_experiment", "experiment_ids"]

ALL_EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.id: spec for spec in (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13)
}


def experiment_ids() -> list[str]:
    return list(ALL_EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentSpec:
    key = experiment_id.upper()
    if key not in ALL_EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(ALL_EXPERIMENTS)}"
        )
    return ALL_EXPERIMENTS[key]

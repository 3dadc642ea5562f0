"""Seeded workload generators owned by the benchmark.

Every generator takes the workload seed and returns plain JSON spec dicts
(the ``ScenarioSpec.to_dict`` schema); nothing here imports the program.
The *shape* of each workload (families, sizes, replica counts, order) is
fixed, and the seed only draws the spec and graph seeds, so two seeds
give different inputs of the same cost: run-to-run spread then
measures the system, not the draw.
"""

from __future__ import annotations

import random

PF90 = {"rule": "plurality-fraction", "fraction": 0.9}
MONO = {"rule": "monochromatic"}
RECORD = {"metrics": ["bias", "plurality-fraction"], "every": 1}

# (family, dynamics, dynamics_params, n, k, replicas, stopping, record, adversary)
# One pass over this list is one ensemble-clique cycle.  Cheap and costly
# entries alternate, so a cycle cut short by the clock is still a fair mix.
# Known cliffs kept out on purpose (n = 1e5, 32 replicas): h-plurality h=5
# at k=64 (24.5 s), two-choices at k=1024 (17 s), median at k=1024 (6.5 s).
_ENSEMBLE_TEMPLATES = [
    ("3-majority", "3-majority", {}, 100_000, 4, 32, MONO, True, None),
    ("median", "median", {}, 1_000_000, 4, 16, PF90, True, None),
    ("3-majority", "3-majority", {}, 1_000_000, 8, 32, PF90, False, None),
    ("h-plurality", "h-plurality", {"h": 3}, 100_000, 3, 32, MONO, False, None),
    ("3-majority-sparse", "3-majority", {}, 1_000_000, 256, 16, PF90, True, None),
    ("three-input", "majority-rule", {}, 100_000, 8, 32, PF90, True, None),
    ("3-majority", "3-majority", {}, 300_000, 64, 32, MONO, False, None),
    ("two-choices", "two-choices", {}, 100_000, 4, 32, MONO, True, None),
    ("h-plurality", "h-plurality", {"h": 4}, 300_000, 5, 16, MONO, True, None),
    ("undecided-state", "undecided-state", {}, 100_000, 4, 16, MONO, True, None),
    ("3-majority-sparse", "3-majority", {}, 1_000_000, 1024, 8, MONO, False, None),
    ("three-input", "majority-uniform-rule", {}, 1_000_000, 16, 16, MONO, False, None),
    ("two-choices", "two-choices", {}, 300_000, 16, 16, PF90, False, None),
    ("h-plurality", "h-plurality", {"h": 5}, 100_000, 4, 16, PF90, True, None),
    ("median", "median", {}, 100_000, 8, 16, MONO, False, None),
    ("undecided-state", "undecided-state", {}, 300_000, 8, 16, PF90, False, None),
    ("3-majority", "3-majority", {}, 100_000, 8, 32, MONO, True, ("balancing", 50)),
    ("3-majority-sparse", "3-majority", {}, 1_000_000, 300, 8, MONO, False, ("balancing", 200)),
]

ENSEMBLE_MAX_ROUNDS = 2000


def _spec(dynamics, params, n, k, replicas, stopping, record, seed, *, max_rounds, adversary=None):
    spec = {
        "dynamics": dynamics,
        "dynamics_params": dict(params),
        "initial": "paper-biased",
        "initial_params": {},
        "n": n,
        "k": k,
        "replicas": replicas,
        "max_rounds": max_rounds,
        "stopping": dict(stopping),
        "record": dict(RECORD) if record else None,
        "adversary": None,
        "adversary_params": {},
        "seed": seed,
    }
    if adversary is not None:
        spec["adversary"], budget = adversary
        spec["adversary_params"] = {"budget": budget}
    return spec


def ensemble_stream(seed: int):
    """Endless passes over the clique templates, yielding ``(family, spec)``."""
    rng = random.Random(f"ensemble-clique:{seed}")
    while True:
        for family, dynamics, params, n, k, replicas, stopping, record, adversary in _ENSEMBLE_TEMPLATES:
            spec = _spec(
                dynamics, params, n, k, replicas, stopping, record, rng.randrange(2**31),
                max_rounds=ENSEMBLE_MAX_ROUNDS, adversary=adversary,
            )
            yield family, spec


ENSEMBLE_CYCLE = len(_ENSEMBLE_TEMPLATES)


# -- service-cold -----------------------------------------------------------

# (family, dynamics, params, n, k, replicas, stopping, record, topology, topology_params)
_COLD_TEMPLATES = [
    ("3-majority", "3-majority", {}, 100_000, 4, 8, PF90, True, None, None),
    ("graph", "3-majority", {}, 1_000, 4, 8, PF90, False, "random-regular", {"d": 8}),
    ("h-plurality", "h-plurality", {"h": 3}, 200_000, 3, 8, MONO, False, None, None),
    ("graph", "3-majority", {}, 1_024, 4, 4, PF90, True, "torus", {}),
    ("three-input", "majority-rule", {}, 100_000, 8, 16, PF90, False, None, None),
    ("graph", "h-plurality", {"h": 3}, 1_200, 3, 8, PF90, True, "random-regular", {"d": 8}),
    ("two-choices", "two-choices", {}, 100_000, 4, 8, MONO, True, None, None),
    ("graph", "3-majority", {}, 900, 4, 4, PF90, False, "torus", {}),
]
#: Tori mix slowly, so they run to this cap; it bounds their engine share.
COLD_MAX_ROUNDS = 100


def cold_sequence(seed: int, count: int) -> list[tuple[str, dict]]:
    """``count`` never-repeating specs (fresh spec and graph seeds), as ``(family, spec)``."""
    rng = random.Random(f"service-cold:{seed}")
    seeds = rng.sample(range(2**31), count)
    out = []
    for index in range(count):
        family, dynamics, params, n, k, replicas, stopping, record, topology, topo_params = (
            _COLD_TEMPLATES[index % len(_COLD_TEMPLATES)]
        )
        spec = _spec(dynamics, params, n, k, replicas, stopping, record, seeds[index], max_rounds=COLD_MAX_ROUNDS)
        if topology is not None:
            spec["topology"] = topology
            spec["topology_params"] = dict(topo_params)
            if topology == "random-regular":
                spec["topology_params"]["seed"] = seeds[index] % 1_000_003
        out.append((family, spec))
    return out


def probe_spec(index: int) -> dict:
    """Tiny spec answered first after start-up (the ``setup_s`` endpoint)."""
    return _spec("3-majority", {}, 1_000, 3, 2, MONO, False, 1_000 + index, max_rounds=1000)

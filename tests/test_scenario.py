"""Tests for the declarative scenario layer: registries, specs, facades."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Configuration,
    HPlurality,
    ScenarioSpec,
    TargetedAdversary,
    ThreeMajority,
    run_ensemble,
    run_process,
    simulate,
    simulate_ensemble,
)
from repro.core.registry import ADVERSARIES, DYNAMICS, STOPPING, WORKLOADS, Registry
from repro.experiments.workloads import paper_biased

#: Example parameters making every registered dynamics buildable by name.
DYNAMICS_EXAMPLES: dict[str, dict] = {
    "2-sample-uniform": {},
    "3-majority": {},
    "first-rule": {},
    "h-plurality": {"h": 4},
    "majority-rule": {},
    "majority-uniform-rule": {},
    "max-rule": {},
    "median": {},
    "median-rule": {},
    "min-rule": {},
    "skewed-rule": {"delta": [1, 3, 2]},
    "three-input-rule": {
        "pair_choice": {"XXY": "major", "XYX": "major", "YXX": "major"},
        "distinct_choice": "uniform",
    },
    "two-choices": {},
    "undecided-state": {},
    "voter": {},
}

#: Example parameters making every registered workload buildable at (n, k).
WORKLOAD_EXAMPLES: dict[str, tuple[int, int, dict]] = {
    "balanced": (600, 4, {}),
    "biased": (600, 4, {"bias": 100}),
    "corollary3": (6_000, 5, {"beta": 3.0}),
    "geometric-tail": (600, 4, {"ratio": 0.6}),
    "lemma10": (600, 4, {}),
    "lemma8": (600, 3, {}),
    "monochromatic": (600, 4, {"color": 1}),
    "paper-biased": (600, 4, {}),
    "random": (600, 4, {"seed": 5}),
    "soda15-gap": (600, 6, {}),
    "theorem2": (600, 4, {}),
    "theorem4": (600, 4, {}),
    "two-color": (600, 2, {"bias": 50}),
}

ADVERSARY_EXAMPLES: dict[str, dict] = {
    "balancing": {"budget": 3},
    "random": {"budget": 3},
    "revive": {"budget": 3},
    "targeted": {"budget": 3},
}


def _full_spec() -> ScenarioSpec:
    return ScenarioSpec(
        dynamics="h-plurality",
        dynamics_params={"h": 4},
        initial="geometric-tail",
        initial_params={"ratio": 0.7},
        n=5_000,
        k=6,
        adversary="targeted",
        adversary_params={"budget": 5},
        stopping={
            "rule": "any-of",
            "rules": [
                {"rule": "plurality-fraction", "fraction": 0.9},
                {"rule": "round-budget", "rounds": 400},
            ],
        },
        record={"metrics": ["bias", "plurality-fraction"], "every": 2},
        replicas=12,
        max_rounds=1_000,
        seed=42,
    )


class TestRegistryMechanics:
    def test_duplicate_names_rejected(self):
        reg = Registry("thing")

        @reg.register("x")
        def make_x():
            return 1

        with pytest.raises(ValueError, match="already registered"):
            reg.register("x")(make_x)

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="3-majority"):
            DYNAMICS.get("3-mojority")

    def test_bad_params_name_accepted_ones(self):
        with pytest.raises(ValueError, match="h, engine"):
            DYNAMICS.build("h-plurality", hh=4)

    def test_every_dynamics_reachable_by_name(self):
        assert set(DYNAMICS.names()) == set(DYNAMICS_EXAMPLES)
        for name, params in DYNAMICS_EXAMPLES.items():
            built = DYNAMICS.build(name, **params)
            assert hasattr(built, "step"), name

    def test_every_workload_reachable_by_name(self):
        assert set(WORKLOADS.names()) == set(WORKLOAD_EXAMPLES)
        for name, (n, k, params) in WORKLOAD_EXAMPLES.items():
            cfg = WORKLOADS.build(name, n, k, **params)
            assert isinstance(cfg, Configuration), name
            assert cfg.n == n and cfg.k == k, name

    def test_every_adversary_reachable_by_name(self):
        assert set(ADVERSARIES.names()) == set(ADVERSARY_EXAMPLES)
        for name, params in ADVERSARY_EXAMPLES.items():
            built = ADVERSARIES.build(name, **params)
            assert built.budget == 3, name

    def test_stopping_registry_covers_rules(self):
        assert set(STOPPING.names()) == {
            "any-of",
            "bias-threshold",
            "monochromatic",
            "plurality-fraction",
            "round-budget",
        }


class TestSpecRoundTrip:
    def test_dict_and_json_identity(self):
        spec = _full_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # Full chain: to_dict → from_dict → to_json → from_json.
        chained = ScenarioSpec.from_json(ScenarioSpec.from_dict(spec.to_dict()).to_json())
        assert chained == spec
        assert chained.to_dict() == spec.to_dict()

    def test_defaults_round_trip(self):
        spec = ScenarioSpec(dynamics="voter", n=100, k=2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = _full_spec()
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert ScenarioSpec.from_file(path) == spec

    def test_stopping_rule_instance_normalised(self):
        from repro import PluralityFractionStop

        spec = ScenarioSpec(
            dynamics="voter", n=100, k=2, stopping=PluralityFractionStop(0.8)
        )
        assert spec.stopping == {"rule": "plurality-fraction", "fraction": 0.8}

    def test_specs_are_hashable_cache_keys(self):
        a = _full_spec()
        b = ScenarioSpec.from_json(a.to_json())
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: "cached"}[b] == "cached"

    def test_with_overrides_revalidates(self):
        spec = _full_spec().with_overrides(replicas=3, seed=None)
        assert spec.replicas == 3 and spec.seed is None
        with pytest.raises(ValueError, match="replicas"):
            _full_spec().with_overrides(replicas=0)


class TestSpecValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys: dynamcs"):
            ScenarioSpec.from_dict({"dynamcs": "voter", "dynamics": "voter", "n": 10, "k": 2})

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required keys: k, n"):
            ScenarioSpec.from_dict({"dynamics": "voter"})

    def test_bad_field_types_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            ScenarioSpec(dynamics="voter", n="many", k=2)
        with pytest.raises(ValueError, match="dynamics_params"):
            ScenarioSpec(dynamics="voter", n=10, k=2, dynamics_params=[1, 2])
        with pytest.raises(ValueError, match="'rule' key"):
            ScenarioSpec(dynamics="voter", n=10, k=2, stopping={"fraction": 0.5})
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(dynamics="voter", n=10, k=2, seed=1.5)
        with pytest.raises(ValueError, match="seed"):
            ScenarioSpec(dynamics="voter", n=10, k=2, seed=-1)

    def test_unknown_names_rejected_at_resolve(self):
        with pytest.raises(KeyError, match="unknown dynamics"):
            ScenarioSpec(dynamics="4-majority", n=10, k=2).validate()
        with pytest.raises(KeyError, match="unknown workload"):
            ScenarioSpec(dynamics="voter", initial="nope", n=10, k=2).validate()
        with pytest.raises(KeyError, match="unknown adversary"):
            ScenarioSpec(dynamics="voter", n=10, k=2, adversary="sneaky").validate()
        with pytest.raises(KeyError, match="unknown stopping rule"):
            ScenarioSpec(dynamics="voter", n=10, k=2, stopping={"rule": "nope"}).validate()

    def test_bad_params_rejected_at_resolve(self):
        with pytest.raises(ValueError, match="invalid parameters for dynamics"):
            ScenarioSpec(dynamics="voter", n=10, k=2, dynamics_params={"h": 3}).validate()
        with pytest.raises(ValueError, match="invalid parameters for workload"):
            ScenarioSpec(
                dynamics="voter", initial="biased", n=10, k=2, initial_params={"bais": 3}
            ).validate()

    def test_workload_shape_mismatch_rejected(self):
        # lemma8 builds 3 colors; asking for k=4 must fail loudly.
        with pytest.raises(ValueError, match="lemma8"):
            ScenarioSpec(dynamics="voter", initial="lemma8", n=12, k=4).validate()


class TestFacadeBitIdentity:
    def test_simulate_matches_run_process(self):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="paper-biased", n=20_000, k=5, seed=11,
            record=["counts"],
        )
        facade = simulate(spec)
        direct = run_process(
            ThreeMajority(), paper_biased(20_000, 5), rng=11, record=["counts"]
        )
        assert facade.rounds == direct.rounds
        assert facade.winner == direct.winner
        assert facade.trace == direct.trace

    def test_simulate_ensemble_matches_run_ensemble(self):
        spec = ScenarioSpec(
            dynamics="h-plurality",
            dynamics_params={"h": 4},
            initial="paper-biased",
            n=10_000,
            k=4,
            replicas=8,
            max_rounds=2_000,
            seed=23,
        )
        facade = simulate_ensemble(spec)
        direct = run_ensemble(
            HPlurality(4), paper_biased(10_000, 4), 8, max_rounds=2_000, rng=23
        )
        assert np.array_equal(facade.rounds, direct.rounds)
        assert np.array_equal(facade.winners, direct.winners)
        assert np.array_equal(facade.final_counts, direct.final_counts)

    def test_adversary_scenario_matches_direct(self):
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=10_000,
            k=4,
            adversary="targeted",
            adversary_params={"budget": 20},
            replicas=6,
            max_rounds=2_000,
            seed=4,
        )
        facade = simulate_ensemble(spec)
        direct = run_ensemble(
            ThreeMajority(),
            paper_biased(10_000, 4),
            6,
            max_rounds=2_000,
            adversary=TargetedAdversary(20),
            rng=4,
        )
        assert np.array_equal(facade.rounds, direct.rounds)
        assert np.array_equal(facade.winners, direct.winners)

    def test_rng_override_beats_spec_seed(self):
        spec = ScenarioSpec(dynamics="3-majority", initial="paper-biased", n=5_000, k=3, seed=0)
        a = simulate(spec, rng=99)
        b = run_process(ThreeMajority(), paper_biased(5_000, 3), rng=99)
        assert a.rounds == b.rounds


class TestSweepSpecBuilds:
    """An experiment's point built as a spec runs as the classic build of
    its dynamics and configuration, at equal seed."""

    POINTS = [{"n": 4_000, "k": 3}, {"n": 6_000, "k": 4}]

    def test_spec_build_matches_classic_build(self):
        for seed, point in enumerate(self.POINTS):
            classic = run_ensemble(
                ThreeMajority(),
                paper_biased(point["n"], point["k"]),
                4,
                max_rounds=1_000,
                rng=seed,
            )
            spec = ScenarioSpec(
                dynamics="3-majority",
                initial="paper-biased",
                n=point["n"],
                k=point["k"],
                replicas=4,
                max_rounds=1_000,
                seed=seed,
            )
            declarative = simulate_ensemble(spec)
            assert np.array_equal(classic.rounds, declarative.rounds)
            assert np.array_equal(classic.winners, declarative.winners)


class TestEveryDynamicsSimulates:
    @pytest.mark.parametrize("name", sorted(DYNAMICS_EXAMPLES))
    def test_scenario_runs_by_name(self, name):
        spec = ScenarioSpec(
            dynamics=name,
            dynamics_params=DYNAMICS_EXAMPLES[name],
            initial="biased",
            initial_params={"bias": 60},
            n=300,
            k=3,
            max_rounds=50,
            seed=0,
        )
        res = simulate(spec)
        assert res.stopped_by in ("monochromatic", "max-rounds")
        assert int(res.final_counts.sum()) <= 300  # colored mass (undecided excluded)


class TestEngineField:
    """The ``engine`` field: validation, identity discipline, facade wiring."""

    def test_defaults_to_auto_and_stays_out_of_canonical_json(self):
        spec = ScenarioSpec(dynamics="voter", n=100, k=2)
        assert spec.engine == "auto"
        assert "engine" not in spec.canonical_json()
        assert "engine" not in spec.to_dict()

    def test_explicit_engine_round_trips_and_changes_identity(self):
        for engine in ("dense", "sparse"):
            spec = ScenarioSpec(dynamics="voter", n=100, k=2, engine=engine)
            assert ScenarioSpec.from_json(spec.to_json()) == spec
            assert f'"engine":"{engine}"' in spec.canonical_json()
        auto = ScenarioSpec(dynamics="voter", n=100, k=2)
        dense = ScenarioSpec(dynamics="voter", n=100, k=2, engine="dense")
        assert auto.canonical_json() != dense.canonical_json()
        assert hash(auto) != hash(dense)

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            ScenarioSpec(dynamics="voter", n=100, k=2, engine="fast")

    def test_facade_dense_engine_is_bit_identical_to_direct(self):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="paper-biased", n=8_000, k=4,
            replicas=5, max_rounds=2_000, seed=4, engine="dense",
        )
        facade = simulate_ensemble(spec)
        direct = run_ensemble(
            ThreeMajority(), paper_biased(8_000, 4), 5, max_rounds=2_000, rng=4,
            engine="dense",
        )
        assert np.array_equal(facade.rounds, direct.rounds)
        assert np.array_equal(facade.final_counts, direct.final_counts)

    def test_facade_sparse_engine_runs_large_k(self):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="balanced", n=2_000, k=512,
            replicas=4, max_rounds=5_000, seed=1, engine="sparse",
            stopping={"rule": "plurality-fraction", "fraction": 0.5},
        )
        ens = simulate_ensemble(spec)
        assert ens.final_counts.shape == (4, 512)
        assert (ens.final_counts.sum(axis=1) == 2_000).all()

    def test_facade_sparse_with_ineligible_scenario_raises(self):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="balanced", n=1_000, k=64,
            replicas=2, seed=0, engine="sparse",
            adversary="targeted", adversary_params={"budget": 2},
        )
        with pytest.raises(ValueError, match="support-preserving"):
            simulate_ensemble(spec)


class TestRecordField:
    """The ``record`` field: normalization, round-trips, strictness, facades."""

    def test_list_shorthand_normalised_to_dict(self):
        spec = ScenarioSpec(dynamics="voter", n=100, k=2, record=["bias", "entropy"])
        assert spec.record == {"metrics": ["bias", "entropy"], "every": 1}

    def test_recordspec_instance_normalised(self):
        from repro import RecordSpec

        spec = ScenarioSpec(
            dynamics="voter", n=100, k=2, record=RecordSpec(("counts",), every=3)
        )
        assert spec.record == {"metrics": ["counts"], "every": 3}

    def test_record_round_trips_and_changes_identity(self):
        spec = ScenarioSpec(dynamics="voter", n=100, k=2, record=["bias"])
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert '"record"' in spec.canonical_json()
        bare = ScenarioSpec(dynamics="voter", n=100, k=2)
        assert spec.canonical_json() != bare.canonical_json()
        assert hash(spec) != hash(bare)

    def test_bad_record_rejected(self):
        with pytest.raises(ValueError, match="unknown record keys"):
            ScenarioSpec(dynamics="voter", n=100, k=2, record={"metrics": [], "evry": 2})
        with pytest.raises(ValueError, match="every"):
            ScenarioSpec(dynamics="voter", n=100, k=2, record={"metrics": ["bias"], "every": 0})
        with pytest.raises(ValueError, match="duplicates"):
            ScenarioSpec(dynamics="voter", n=100, k=2, record=["bias", "bias"])

    def test_unknown_metric_rejected_at_resolve(self):
        with pytest.raises(KeyError, match="unknown metric"):
            ScenarioSpec(dynamics="voter", n=100, k=2, record=["nope"]).validate()

    def test_every_registered_metric_reachable_via_record(self):
        from repro import METRICS

        for name in METRICS.names():
            spec = ScenarioSpec(
                dynamics="3-majority",
                initial="paper-biased",
                n=2_000,
                k=3,
                replicas=3,
                max_rounds=50,
                seed=7,
                record=[name],
            )
            ens = simulate_ensemble(spec)
            assert ens.trace is not None and name in ens.trace, name

    def test_facade_trace_matches_direct_run_ensemble(self):
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=10_000,
            k=4,
            replicas=6,
            max_rounds=2_000,
            seed=5,
            record={"metrics": ["bias", "counts"], "every": 2},
        )
        facade = simulate_ensemble(spec)
        direct = run_ensemble(
            ThreeMajority(),
            paper_biased(10_000, 4),
            6,
            max_rounds=2_000,
            record={"metrics": ["bias", "counts"], "every": 2},
            rng=5,
        )
        assert facade.trace == direct.trace
        assert np.array_equal(facade.rounds, direct.rounds)

    def test_recording_never_perturbs_the_run(self):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="paper-biased", n=8_000, k=4,
            replicas=5, max_rounds=2_000, seed=3,
        )
        bare = simulate_ensemble(spec)
        recorded = simulate_ensemble(spec.with_overrides(record=["entropy", "counts"]))
        assert np.array_equal(bare.rounds, recorded.rounds)
        assert np.array_equal(bare.winners, recorded.winners)
        assert np.array_equal(bare.final_counts, recorded.final_counts)


class TestTopologyField:
    """ScenarioSpec.topology: round-trip, validation, cache-key discipline."""

    def _graph_spec(self, **overrides) -> ScenarioSpec:
        fields = dict(
            dynamics="3-majority",
            initial="biased",
            initial_params={"bias": 10},
            n=120,
            k=3,
            topology="torus",
            topology_params={"rows": 10, "cols": 12},
            replicas=4,
            max_rounds=2_000,
            seed=9,
            record=["counts", "bias"],
        )
        fields.update(overrides)
        return ScenarioSpec(**fields)

    def test_round_trips_strictly(self):
        spec = self._graph_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert "topology" in spec.to_dict()
        assert spec.to_dict()["topology_params"] == {"rows": 10, "cols": 12}

    def test_clique_specs_emit_no_topology_keys(self):
        # Cache-preservation contract: a spec without a topology must
        # produce byte-identical canonical JSON to the pre-topology era.
        spec = ScenarioSpec(dynamics="voter", n=100, k=2, seed=1)
        payload = spec.to_dict()
        assert "topology" not in payload
        assert "topology_params" not in payload

    def test_topology_changes_cache_key(self):
        from repro.serve.cache import cache_key

        base = ScenarioSpec(dynamics="3-majority", n=120, k=3, replicas=4, seed=9)
        keys = {
            cache_key(base),
            cache_key(base.with_overrides(topology="clique")),
            cache_key(base.with_overrides(topology="cycle")),
            cache_key(
                base.with_overrides(topology="torus", topology_params={"rows": 10, "cols": 12})
            ),
        }
        assert len(keys) == 4  # all distinct, counts-engine key untouched

    def test_params_without_topology_rejected(self):
        with pytest.raises(ValueError, match="topology_params"):
            ScenarioSpec(dynamics="voter", n=10, k=2, topology_params={"rows": 2})

    def test_engine_clash_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ScenarioSpec(dynamics="voter", n=10, k=2, topology="cycle", engine="sparse")

    def test_adversary_clash_rejected_at_resolve(self):
        with pytest.raises(ValueError, match="adversar"):
            self._graph_spec(
                adversary="targeted", adversary_params={"budget": 3}
            ).validate()

    def test_unknown_topology_rejected_at_resolve(self):
        with pytest.raises(KeyError, match="unknown topology"):
            self._graph_spec(topology="moebius", topology_params={}).validate()

    def test_bad_topology_params_rejected_at_resolve(self):
        with pytest.raises(ValueError, match="torus"):
            self._graph_spec(topology_params={"rows": 7, "cols": 7}).validate()

    def test_ineligible_dynamics_rejected_at_resolve(self):
        with pytest.raises(ValueError, match="unavailable"):
            self._graph_spec(dynamics="undecided-state", topology="cycle",
                             topology_params={}).validate()

    def test_registries_lists_topologies(self):
        names = ScenarioSpec.registries()["topologies"]
        for expected in ("clique", "cycle", "torus", "random-regular",
                         "erdos-renyi", "complete-bipartite", "barbell"):
            assert expected in names

    def test_simulate_ensemble_batched_equals_sequential(self):
        spec = self._graph_spec()
        batched = simulate_ensemble(spec)
        sequential = simulate_ensemble(spec, batch=False)
        assert np.array_equal(batched.rounds, sequential.rounds)
        assert np.array_equal(batched.winners, sequential.winners)
        assert np.array_equal(batched.final_counts, sequential.final_counts)
        assert batched.trace.digest() == sequential.trace.digest()

    def test_simulate_single_trajectory(self):
        res = simulate(self._graph_spec(replicas=1))
        assert res.trace is not None
        assert set(res.trace.metrics) == {"counts", "bias"}
        series = res.trace.replica(0, "counts")
        assert (series.sum(axis=1) == 120).all()


class TestImportHygiene:
    """The run path needs numpy alone: no scipy, networkx or experiment suite.

    A library process that only simulates does not load the serving stack
    either.  Each program runs in a fresh interpreter, because this test
    process has long since imported all of these.
    """

    PROGRAM = """
import json, sys

import repro
import repro.cli
from repro.core.registry import TOPOLOGIES
from repro.scenario import ScenarioSpec, simulate_ensemble

for name in TOPOLOGIES.names():
    TOPOLOGIES.build(name, 12)
for topology in (None, "random-regular"):
    spec = ScenarioSpec(dynamics="3-majority", n=120, k=3, replicas=2, seed=0, topology=topology)
    simulate_ensemble(spec)
status = repro.cli.main(["simulate", "--dynamics", "3-majority", "--n", "120", "--k", "3",
                         "--replicas", "2", "--topology", "torus", "--json"])
loaded = [name for name in ("networkx", "scipy", "repro.experiments.registry") if name in sys.modules]
print(json.dumps({"status": status, "loaded": loaded}))
"""

    LIBRARY_PROGRAM = """
import json, sys

import repro

for topology in (None, "random-regular"):
    spec = repro.ScenarioSpec(dynamics="3-majority", n=120, k=3, replicas=2, seed=0, topology=topology)
    repro.simulate_ensemble(spec)
loaded = [name for name in ("repro.serve", "repro.faults", "multiprocessing", "concurrent.futures")
          if name in sys.modules]
from repro import FaultPlan, ResultCache, run_batch
lazy = [ResultCache.__module__, run_batch.__module__, FaultPlan.__module__]
print(json.dumps({"loaded": loaded, "lazy": lazy}))
"""

    @staticmethod
    def run_program(program: str) -> dict:
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_run_path_loads_neither_scipy_nor_networkx(self):
        assert self.run_program(self.PROGRAM) == {"status": 0, "loaded": []}

    def test_library_run_leaves_the_serving_stack_unloaded(self):
        verdict = self.run_program(self.LIBRARY_PROGRAM)
        assert verdict == {
            "loaded": [],
            "lazy": ["repro.serve.cache", "repro.serve.executor", "repro.faults"],
        }

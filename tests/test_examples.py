"""Smoke tests: the example scripts must import and (the fast ones) run."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _import_module(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # type: ignore[union-attr]
    return module


class TestExamplesImport:
    @pytest.mark.parametrize(
        "name",
        ["quickstart", "distributed_database", "item_ranking", "sensor_network"],
    )
    def test_importable(self, name):
        module = _import_module(name)
        assert callable(module.main)


class TestExamplesRun:
    @pytest.mark.slow
    def test_quickstart_runs(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "consensus on color" in proc.stdout
        assert "plurality-to-majority" in proc.stdout

    def test_database_reconcile_unit(self):
        # The example's core function, at toy scale.
        module = _import_module("distributed_database")
        out = module.reconcile(n_replicas=5_000, versions=4, byzantine=5, seed=0)
        assert out["correct_version_won"]
        assert out["stale_replicas"] <= 50

    def test_sensor_measure_unit(self):
        # The example's core function, at toy scale: measure() takes one
        # declarative spec, topology field included.
        module = _import_module("sensor_network")
        from repro import ScenarioSpec

        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="biased",
            initial_params={"bias": 60},
            n=200,
            k=3,
            replicas=3,
            max_rounds=2_000,
            seed=0,
        )
        rate, med = module.measure(spec)
        assert rate == 1.0
        assert med < 100

    def test_sensor_barbell_unit(self):
        # The example's barbell run, at toy scale: two unanimous communities
        # joined by one edge hold their colors for the whole budget.
        module = _import_module("sensor_network")
        res = module.barbell_deadlock(20, max_rounds=60)
        assert not res.converged
        assert res.stopped_by == "max-rounds"
        assert res.rounds == 60
        assert res.final_counts.sum() == 40
        assert res.final_counts.min() >= 15

    def test_sensor_spec_builder_sets_topology(self):
        module = _import_module("sensor_network")
        spec = module.sensor_spec("torus", rows=32, cols=32)
        assert spec.topology == "torus"
        assert spec.topology_params == {"rows": 32, "cols": 32}
        assert module.sensor_spec().topology is None

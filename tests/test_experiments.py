"""Tests for the experiment layer: workloads, results, plots, harness, registry.

Includes the end-to-end integration tests that run every experiment at
smoke scale and assert its headline reproduction criterion, and the
checks that every experiment runs as specs through the batch path.
"""

from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest

import repro.experiments
from repro import ResultCache, ScenarioSpec, run_batch
from repro.experiments import (
    ALL_EXPERIMENTS,
    ResultTable,
    ascii_plot,
    experiment_ids,
    geometric_tail,
    get_experiment,
    lemma8_start,
    lemma10_start,
    paper_biased,
    theorem1_bias,
    theorem2_start,
    theorem4_start,
)
from repro.experiments.e03_polylog import corollary3_config
from repro.experiments.e09_landscape import danger_config, gap_config


class TestWorkloads:
    def test_theorem1_bias_shape(self):
        n, k = 100_000, 8
        lam = min(2 * k, (n / math.log(n)) ** (1 / 3))
        expected = round(math.sqrt(2 * lam * n * math.log(n)))
        assert abs(theorem1_bias(n, k) - expected) <= 1

    def test_paper_biased_valid(self):
        cfg = paper_biased(50_000, 12)
        assert cfg.n == 50_000
        assert cfg.bias == theorem1_bias(50_000, 12)

    def test_theorem2_start(self):
        cfg = theorem2_start(90_000, 6, eps=0.25)
        assert cfg.n == 90_000
        imbalance = cfg.plurality_count - 90_000 // 6
        assert 0 < imbalance <= (90_000 / 6) ** 0.75 + 2

    def test_theorem2_rejects_k1(self):
        with pytest.raises(ValueError):
            theorem2_start(100, 1)

    def test_lemma10_default_bias(self):
        cfg = lemma10_start(90_000, 4)
        assert cfg.bias == int(math.sqrt(4 * 90_000) / 6)

    def test_lemma8_structure(self):
        cfg = lemma8_start(9_000, s=100)
        assert cfg.n == 9_000
        assert cfg.counts[0] - cfg.counts[2] == 200

    def test_geometric_tail(self):
        cfg = geometric_tail(10_000, 6, ratio=0.5)
        assert cfg.n == 10_000
        assert cfg.counts[0] > cfg.counts[1] > cfg.counts[2]

    def test_gap_config_properties(self):
        cfg = gap_config(5_000)
        assert cfg.n == 5_000
        assert cfg.monochromatic_distance() < 4.0
        assert cfg.plurality_color == 0

    def test_danger_config_many_colors(self):
        cfg = danger_config(2_500)
        assert cfg.k >= int(math.sqrt(2_500))

    def test_corollary3_config(self):
        cfg = corollary3_config(90_000, 20, 3.0)
        assert cfg.n == 90_000
        assert cfg.plurality_count >= 30_000

    def test_theorem4_start(self):
        cfg = theorem4_start(8_000, 16)
        assert cfg.n == 8_000
        assert cfg.plurality_count == int(3 * 8_000 / (2 * 16))


class TestResultTable:
    def _table(self) -> ResultTable:
        t = ResultTable(title="t", columns=["a", "b"])
        t.add_row(a=1, b=2.5)
        t.add_row(a=3, b=float("nan"))
        return t

    def test_add_row_validates_keys(self):
        t = ResultTable(title="t", columns=["a"])
        with pytest.raises(ValueError):
            t.add_row(b=1)
        with pytest.raises(ValueError):
            t.add_row(a=1, b=2)

    def test_column_access(self):
        assert self._table().column("a") == [1, 3]
        with pytest.raises(KeyError):
            self._table().column("zzz")

    def test_render_contains_data(self):
        text = self._table().render()
        assert "2.5" in text and "nan" in text and "t" in text

    def test_render_formats_bools(self):
        t = ResultTable(title="t", columns=["ok"])
        t.add_row(ok=np.bool_(True))
        t.add_row(ok=False)
        out = t.render()
        assert "yes" in out and "no" in out

    def test_csv_round_trip(self, tmp_path):
        t = self._table()
        path = tmp_path / "out.csv"
        t.write_csv(str(path))
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert "2.5" in text

    def test_from_rows(self):
        t = ResultTable(title="x", columns=["a"])
        for row in ({"a": 1}, {"a": 2}):
            t.add_row(**row)
        assert len(t) == 2
        assert t.columns == ["a"]

    def test_filtered(self):
        t = self._table().filtered(lambda r: r["a"] == 1)
        assert len(t) == 1

    def test_notes_rendered(self):
        t = self._table()
        t.add_note("hello")
        assert "note: hello" in t.render()


class TestAsciiPlot:
    def test_basic_plot(self):
        out = ascii_plot(
            {"lin": ([1, 2, 3], [1, 2, 3])}, width=20, height=5, title="T", xlabel="x", ylabel="y"
        )
        assert "T" in out and "legend" in out and "*" in out

    def test_log_axes(self):
        out = ascii_plot({"s": ([1, 10, 100], [1, 10, 100])}, logx=True, logy=True)
        assert "legend" in out

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": ([0, 1], [1, 2])}, logx=True)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_plot({})

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            ascii_plot({"s": ([1, 2], [1])})

    def test_multiple_series_glyphs(self):
        out = ascii_plot({"a": ([1, 2], [1, 2]), "b": ([1, 2], [2, 1])})
        assert "*=a" in out and "o=b" in out


class TestHarness:
    def test_sweep_runs_and_seeds_differ(self):
        # Every point of a sweep is a spec of its own, on a seed derived
        # from the experiment's seed and the point.
        specs = get_experiment("E2").specs("smoke", 0)
        seeds = [spec.seed for spec in specs]
        assert len(set(seeds)) == len(specs) > 1
        assert set(seeds).isdisjoint(spec.seed for spec in get_experiment("E2").specs("smoke", 1))
        report = run_batch(specs, processes=1)
        assert all(result.convergence_rate == 1.0 for result in report.results)
        assert report.summary()["misses"] == len(specs)

    def test_ensemble_at_reproducible(self):
        # Equal seeds give equal specs, so equal tables.
        experiment = get_experiment("E4")
        assert experiment.specs("smoke", 3) == experiment.specs("smoke", 3)
        assert experiment("smoke", 3).render() == experiment("smoke", 3).render()

    def test_spec_rejects_unknown_scale(self):
        spec = get_experiment("E1")
        with pytest.raises(ValueError):
            spec(scale="huge")


class TestExperimentSpecs:
    """Every experiment runs as specs through the batch path, and nothing else."""

    #: Engine runners and the per-batch step; experiments reach them only
    #: through specs.
    RUNNERS = {
        "run_process", "run_ensemble", "run_graph_ensemble", "run_graph_process", "step_many",
    }

    def test_no_module_drives_an_engine(self):
        package = pathlib.Path(repro.experiments.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.Name):
                    names = {node.id}
                else:
                    continue
                used = names & self.RUNNERS
                assert not used, f"{path.name}:{node.lineno} uses {used}"

    @pytest.mark.slow
    @pytest.mark.parametrize("experiment_id", [f"E{i}" for i in range(1, 14)])
    def test_specs_cache_and_table(self, experiment_id, tmp_path):
        experiment = get_experiment(experiment_id)
        specs = experiment.specs("smoke", 1)
        assert specs and all(isinstance(spec, ScenarioSpec) for spec in specs)
        assert all(type(spec.seed) is int for spec in specs)
        assert len({spec.seed for spec in specs}) == len(specs)
        cold = run_batch(specs, cache=ResultCache(tmp_path), processes=1)
        # A second pass, on a fresh cache over the same directory, reads
        # every result back from disk: no run at all.
        warm = run_batch(specs, cache=ResultCache(tmp_path), processes=1)
        assert cold.summary()["errors"] == 0
        assert warm.summary()["misses"] == 0
        assert warm.summary()["hits"] == warm.summary()["unique"]
        table = experiment.table("smoke", 1, cold.results)
        assert len(table) > 0
        assert experiment.table("smoke", 1, warm.results).render() == table.render()


class TestRegistry:
    def test_all_thirteen_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 14)]

    def test_lookup_case_insensitive(self):
        assert get_experiment("e2").id == "E2"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_specs_have_claims(self):
        for spec in ALL_EXPERIMENTS.values():
            assert spec.claim
            assert spec.title


@pytest.mark.slow
class TestExperimentIntegration:
    """Run every experiment at smoke scale and check its headline criterion."""

    def test_e1_drift(self):
        t = get_experiment("E1")(scale="smoke", seed=1)
        assert len(t) > 0
        assert all(row["drift_ok"] for row in t.rows)
        assert all(row["max_dev_stderr"] < 6 for row in t.rows)

    def test_e2_upper_bound(self):
        t = get_experiment("E2")(scale="smoke", seed=1)
        assert all(row["win_rate"] == 1.0 for row in t.rows)
        # Upper bound: measured/predicted stays below a modest constant.
        assert all(row["ratio"] < 2.0 for row in t.rows)

    def test_e3_polylog(self):
        t = get_experiment("E3")(scale="smoke", seed=1)
        assert all(row["win_rate"] == 1.0 for row in t.rows)
        assert all(row["rounds_per_logn"] < 5.0 for row in t.rows)

    def test_e4_lower_bound(self):
        t = get_experiment("E4")(scale="smoke", seed=1)
        ks = [row["k"] for row in t.rows]
        doubling = [row["median_doubling_rounds"] for row in t.rows]
        consensus = [row["median_consensus_rounds"] for row in t.rows]
        # Monotone growth in k is the lower bound's empirical signature.
        assert doubling == sorted(doubling)
        assert consensus[-1] > consensus[0]
        assert ks == sorted(ks)

    def test_e5_uniqueness(self):
        t = get_experiment("E5")(scale="smoke", seed=1)
        for row in t.rows:
            if row["in_M3"]:
                assert row["win_rate"] >= 0.9, row
            else:
                # Theorem 3: failure probability > 1/4.
                assert row["win_rate"] <= 0.75, row

    def test_e6_hplurality(self):
        t = get_experiment("E6")(scale="smoke", seed=1)
        rounds = [row["median_rounds"] for row in t.rows]
        assert rounds == sorted(rounds, reverse=True)  # larger h is faster
        assert all(row["win_rate"] >= 0.5 for row in t.rows)
        # The Ω(k/h²) floor: normalised time bounded away from zero.
        assert all(row["rounds_x_h2_over_k"] > 0.5 for row in t.rows)

    def test_e7_bias_tightness(self):
        t = get_experiment("E7")(scale="smoke", seed=1)
        floor = 1 / (16 * math.e)
        for row in t.rows:
            if row["alpha"] <= 1.0:
                assert row["ci_low"] >= floor, row

    def test_e8_adversary(self):
        t = get_experiment("E8")(scale="smoke", seed=1)
        small_f = [r for r in t.rows if r["F_over_s_lambda"] <= 0.2]
        assert all(r["plurality_survived_rate"] == 1.0 for r in small_f)
        assert all(r["held_window_rate"] == 1.0 for r in small_f)

    def test_e9_landscape(self):
        t = get_experiment("E9")(scale="smoke", seed=1)
        panels = {row["panel"] for row in t.rows}
        assert panels == {"a-voter", "b-two-choices", "c-gap", "d-danger"}
        voter = [r for r in t.rows if r["panel"] == "a-voter"][0]
        assert 0.2 < voter["value"] < 0.6  # constant minority-win rate
        danger = {r["dynamics"]: r["value"] for r in t.rows if r["panel"] == "d-danger"}
        # Undecided-state loses the plurality in one round at constant
        # rate; 3-majority essentially never does.
        assert danger["undecided"] > 0.05
        assert danger["3-majority"] < 0.05

    def test_e10_phases(self):
        t = get_experiment("E10")(scale="smoke", seed=1)
        by_phase = {row["phase"]: row for row in t.rows}
        p1 = by_phase["plurality-to-majority"]
        assert p1["mean_growth_factor"] > 1.0
        p2 = by_phase["majority-to-almost-all"]
        assert p2["mean_decay_ratio"] < 8 / 9
        p3 = by_phase["last-step"]
        assert p3["mean_rounds"] <= 3.0

    def test_e11_crossmodel(self):
        t = get_experiment("E11")(scale="smoke", seed=1)
        voter = {r["model"]: r for r in t.rows if r["panel"] == "a-voter"}
        # Both models fail at roughly the martingale rate (far from 1.0).
        assert voter["sequential"]["plurality_win_rate"] < 0.95
        assert voter["parallel"]["plurality_win_rate"] < 0.95
        und = {r["model"]: r for r in t.rows if r["panel"] == "b-undecided"}
        assert und["sequential"]["plurality_win_rate"] >= 0.9
        assert und["parallel"]["plurality_win_rate"] >= 0.9
        # tick/n time within an order of magnitude of parallel rounds.
        ratio = und["sequential"]["median_parallel_rounds"] / max(
            und["parallel"]["median_parallel_rounds"], 1e-9
        )
        assert 0.1 < ratio < 10.0

    def test_e12_meanfield(self):
        t = get_experiment("E12")(scale="smoke", seed=1)
        rows = sorted(t.rows, key=lambda r: r["bias_over_sqrt_n"])
        # Below/at the fluctuation scale the stochastic process fails often
        # while the mean field (for s > 0) already declares victory.
        assert rows[0]["stochastic_win_rate"] < 0.5
        mid = [r for r in rows if 0 < r["bias_over_sqrt_n"] <= 1]
        assert all(r["meanfield_verdict"] == "plurality wins" for r in mid)
        assert all(r["stochastic_win_rate"] < 0.95 for r in mid)
        # Far above the scale the ODE becomes faithful.
        assert rows[-1]["stochastic_win_rate"] >= 0.95
        assert rows[-1]["ode_is_faithful"]

    def test_e13_topology(self):
        t = get_experiment("E13")(scale="smoke", seed=1)
        by_topo = {row["topology"]: row for row in t.rows}
        assert set(by_topo) == {
            "clique", "random-regular", "torus", "erdos-renyi", "barbell",
        }
        # Well-mixing topologies all reach consensus...
        for name in ("clique", "random-regular", "erdos-renyi", "torus"):
            assert by_topo[name]["convergence_rate"] >= 0.8, by_topo[name]
        # ...the torus pays its diameter relative to the clique...
        assert by_topo["torus"]["median_rounds"] > 2 * by_topo["clique"]["median_rounds"]
        # ...and the barbell bottleneck stalls the dynamics.
        assert by_topo["barbell"]["convergence_rate"] <= 0.5

"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import ScenarioSpec, cache_key, simulate_ensemble
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.scale == "small"
        assert args.seed == 0
        assert args.csv_dir is None

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--scale", "galactic"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out

    def test_describe(self, capsys):
        assert main(["describe", "e4"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out and "Ω(k log n)" in out

    def test_describe_unknown(self):
        with pytest.raises(KeyError):
            main(["describe", "E77"])

    def test_run_smoke_with_csv(self, capsys, tmp_path):
        assert main(["run", "E1", "--scale", "smoke", "--csv-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "completed" in out
        assert (tmp_path / "e1_smoke.csv").exists()


class TestScenarioCommands:
    def test_scenarios_lists_registries(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("3-majority", "h-plurality", "paper-biased", "targeted", "any-of"):
            assert name in out

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "dynamics", "workloads", "adversaries", "topologies", "stopping", "metrics"
        }
        assert "3-majority" in data["dynamics"]
        assert "plurality-fraction" in data["metrics"]
        assert "torus" in data["topologies"]

    def test_simulate_inline(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dynamics", "3-majority",
                    "--initial", "paper-biased",
                    "--n", "5000",
                    "--k", "3",
                    "--replicas", "4",
                    "--seed", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "plurality win rate" in out
        assert "monochromatic" in out

    def test_simulate_from_file_with_json_output(self, capsys, tmp_path):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="paper-biased", n=5_000, k=3, replicas=4, seed=0
        )
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert main(["simulate", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"] == spec.to_dict()
        assert record["plurality_win_rate"] == 1.0
        assert record["stop_reasons"] == {"monochromatic": 4}

    def test_simulate_json_is_strict_when_nothing_converged(self, capsys, tmp_path):
        # Every replica stops on the plurality fraction, so the rounds
        # summary over converged replicas is empty: its values must come out
        # as null, never as bare NaN (which is not JSON).
        spec = ScenarioSpec(
            dynamics="3-majority",
            initial="paper-biased",
            n=5_000,
            k=3,
            replicas=4,
            seed=0,
            stopping={"rule": "plurality-fraction", "fraction": 0.9},
        )
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert main(["simulate", str(path), "--json"]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant!r} in output")

        record = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert record["stop_reasons"] == {"plurality-fraction": 4}
        assert record["convergence_rate"] == 0.0
        assert record["rounds_summary"] == {"mean": None, "median": None, "p90": None, "max": None}

    def test_simulate_file_overrides(self, capsys, tmp_path):
        spec = ScenarioSpec(dynamics="3-majority", initial="paper-biased", n=5_000, k=3)
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert main(["simulate", str(path), "--replicas", "2", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["replicas"] == 2

    def test_simulate_file_plus_inline_names_clash(self, tmp_path):
        spec = ScenarioSpec(dynamics="3-majority", n=100, k=2)
        path = tmp_path / "scenario.json"
        spec.save(path)
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["simulate", str(path), "--dynamics", "voter"])
        with pytest.raises(SystemExit, match="--stopping cannot be combined"):
            main(["simulate", str(path), "--stopping", '{"rule": "round-budget", "rounds": 5}'])

    def test_simulate_inline_requires_core_fields(self):
        with pytest.raises(SystemExit, match="--dynamics"):
            main(["simulate", "--n", "100", "--k", "2"])

    def test_simulate_rejects_bad_stopping_json(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--stopping", "not json"])

    def test_simulate_save_spec(self, capsys, tmp_path):
        out_path = tmp_path / "saved.json"
        assert (
            main(
                [
                    "simulate",
                    "--dynamics", "voter",
                    "--n", "500",
                    "--k", "2",
                    "--initial", "two-color",
                    "--initial-params", '{"bias": 100}',
                    "--stopping", '{"rule": "round-budget", "rounds": 5}',
                    "--max-rounds", "50",
                    "--save-spec", str(out_path),
                ]
            )
            == 0
        )
        saved = ScenarioSpec.from_file(out_path)
        assert saved.dynamics == "voter"
        assert saved.stopping == {"rule": "round-budget", "rounds": 5}
        out = capsys.readouterr().out
        assert "stopped by" in out

    def test_save_spec_is_skipped_when_the_run_fails(self, tmp_path):
        out_path = tmp_path / "saved.json"
        with pytest.raises(ValueError, match="h must be an integer"):
            main(
                [
                    "simulate",
                    "--dynamics", "h-plurality",
                    "--dynamics-params", '{"h": 4.5}',
                    "--n", "500",
                    "--k", "3",
                    "--save-spec", str(out_path),
                ]
            )
        assert not out_path.exists()


class TestMetricsCommands:
    def test_metrics_lists_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for name in ("bias", "counts", "entropy", "plurality-fraction", "tv-monochromatic"):
            assert name in out

    def test_metrics_json(self, capsys):
        assert main(["metrics", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["vector"] is True
        assert data["bias"]["dtype"] == "int64"
        assert data["plurality-fraction"]["vector"] is False

    def test_simulate_record_flags(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dynamics", "3-majority",
                    "--initial", "paper-biased",
                    "--n", "5000",
                    "--k", "3",
                    "--replicas", "4",
                    "--seed", "0",
                    "--record", "bias,entropy",
                    "--record-every", "2",
                    "--json",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["record"] == {"metrics": ["bias", "entropy"], "every": 2}
        trace = record["trace"]
        assert trace["metrics"] == ["bias", "entropy"]
        assert trace["every"] == 2 and trace["replicas"] == 4
        assert len(trace["digest"]) == 64

    def test_record_flags_override_file(self, capsys, tmp_path):
        spec = ScenarioSpec(
            dynamics="3-majority", initial="paper-biased", n=5_000, k=3, replicas=2
        )
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert main(["simulate", str(path), "--record", "plurality-fraction", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["trace"]["metrics"] == ["plurality-fraction"]

    def test_record_every_without_record_rejected(self, tmp_path):
        spec = ScenarioSpec(dynamics="3-majority", initial="paper-biased", n=1_000, k=3)
        path = tmp_path / "scenario.json"
        spec.save(path)
        with pytest.raises(SystemExit, match="--record-every"):
            main(["simulate", str(path), "--record-every", "3"])

    def test_counts_table_cap_flag_merges_into_dynamics_params(self, capsys):
        # --counts-table-cap went with the composition tables: the parser
        # rejects it, and h = 4 runs without any cap in dynamics_params.
        args = [
            "simulate",
            "--dynamics", "h-plurality",
            "--dynamics-params", '{"h": 4}',
            "--initial", "paper-biased",
            "--n", "2000",
            "--k", "4",
            "--replicas", "2",
            "--seed", "1",
            "--json",
        ]
        with pytest.raises(SystemExit) as err:
            main([*args, "--counts-table-cap", "500"])
        assert err.value.code == 2
        assert "--counts-table-cap" in capsys.readouterr().err
        assert main(args) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["dynamics_params"] == {"h": 4}


class TestTopologyCommands:
    def test_topologies_lists_registry(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("clique", "cycle", "torus", "random-regular",
                     "erdos-renyi", "complete-bipartite", "barbell"):
            assert name in out

    def test_topologies_json(self, capsys):
        assert main(["topologies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "torus" in data
        assert set(data["torus"]["params"]) == {"rows", "cols"}
        assert data["random-regular"]["params"] == ["d", "seed"]

    def test_simulate_topology_inline(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dynamics", "3-majority",
                    "--initial", "biased",
                    "--initial-params", '{"bias": 10}',
                    "--topology", "torus",
                    "--topology-params", '{"rows": 10, "cols": 12}',
                    "--n", "120",
                    "--k", "3",
                    "--replicas", "3",
                    "--seed", "0",
                    "--record", "counts",
                    "--json",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["spec"]["topology"] == "torus"
        assert record["spec"]["topology_params"] == {"rows": 10, "cols": 12}
        assert record["trace"]["metrics"] == ["counts"]
        assert len(record["trace"]["digest"]) == 64

    def test_simulate_topology_human_output_names_topology(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--dynamics", "3-majority",
                    "--topology", "cycle",
                    "--n", "60",
                    "--k", "2",
                    "--replicas", "2",
                    "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "topology: cycle" in out

    def test_topology_flags_clash_with_file(self, tmp_path):
        spec = ScenarioSpec(dynamics="3-majority", n=100, k=2)
        path = tmp_path / "scenario.json"
        spec.save(path)
        with pytest.raises(SystemExit, match="--topology cannot be combined"):
            main(["simulate", str(path), "--topology", "cycle"])
        with pytest.raises(SystemExit, match="--topology-params cannot be combined"):
            main(["simulate", str(path), "--topology-params", '{"rows": 2}'])

    def test_topology_file_spec_round_trips(self, capsys, tmp_path):
        spec = ScenarioSpec(
            dynamics="3-majority", n=120, k=3, topology="torus",
            topology_params={"rows": 10, "cols": 12}, replicas=2,
            max_rounds=2_000, seed=4,
        )
        path = tmp_path / "graph.json"
        spec.save(path)
        assert main(["simulate", str(path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec"] == spec.to_dict()


class TestBatchCommand:
    @staticmethod
    def _spec(seed: int = 0, **overrides) -> dict:
        fields = dict(
            dynamics="3-majority",
            initial="paper-biased",
            n=2_000,
            k=3,
            replicas=4,
            seed=seed,
            max_rounds=400,
            stopping={"rule": "plurality-fraction", "fraction": 0.9},
        )
        fields.update(overrides)
        return fields

    def test_all_valid_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([self._spec(0), self._spec(0)]))
        assert main(["batch", str(path), "--json", "--no-cache"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == 0
        assert [item["source"] for item in report["items"]] == ["run", "dedup"]
        assert all(item["error"] is None for item in report["items"])

    def test_invalid_items_reported_not_fatal(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps([self._spec(0), self._spec(0, n="nope"), self._spec(0)])
        )
        assert main(["batch", str(path), "--json", "--no-cache"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 3
        assert report["errors"] == 1
        items = report["items"]
        assert items[0]["source"] == "run" and items[0]["error"] is None
        assert items[1]["source"] == "error"
        assert items[1]["error"]["type"] == "ValueError"
        assert "n must be an integer" in items[1]["error"]["message"]
        # The valid duplicate still dedups against the first item.
        assert items[2]["source"] == "dedup"
        assert items[2]["key"] == items[0]["key"]

    def test_invalid_items_human_output(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([self._spec(seed=None)]))
        assert main(["batch", str(path), "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "[error]" in out
        assert "1 failed" in out

    def test_unrunnable_items_are_keyed_errors(self, capsys, tmp_path):
        # Each of these parses, so it gets a key, and then fails in the run
        # (the only place a spec is resolved); its siblings are served.
        bad = [
            self._spec(1, engine="sparse", adversary="targeted", adversary_params={"budget": 10}),
            self._spec(1, dynamics="h-plurality", dynamics_params={"h": 4.5}),
            self._spec(1, dynamics="no-such-dynamics"),
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([self._spec(0), *bad, self._spec(0)]))
        assert main(["batch", str(path), "--json", "--no-cache", "--processes", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        items = report["items"]
        assert report["errors"] == len(bad)
        assert [item["source"] for item in items] == ["run", "error", "error", "error", "dedup"]
        assert items[0]["error"] is None and items[-1]["key"] == items[0]["key"]
        for raw, item in zip(bad, items[1:-1]):
            spec = ScenarioSpec.from_dict(raw)
            with pytest.raises(Exception) as err:
                simulate_ensemble(spec)
            assert item["key"] == cache_key(spec)
            assert item["error"] == {"type": type(err.value).__name__, "message": str(err.value)}

    def test_unseeded_entry_is_per_item_error(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([self._spec(seed=None), self._spec(5)]))
        assert main(["batch", str(path), "--json", "--no-cache"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["items"][0]["source"] == "error"
        assert "seed" in report["items"][0]["error"]["message"]
        assert report["items"][1]["source"] == "run"

    def test_json_documents_are_the_wire_bodies(self, capsys, tmp_path):
        # repro batch --json prints the /v1/batch body and repro simulate
        # --json the /v1/simulate body, wall clock apart.
        from repro import ResultCache
        from repro.service import BackgroundServer, ScenarioService, ServiceClient

        good = self._spec(7)
        batch = [good, self._spec(7, n="nope"), self._spec(-1), good]
        batch_path = tmp_path / "batch.json"
        batch_path.write_text(json.dumps(batch))
        assert main(["batch", str(batch_path), "--json", "--no-cache", "--processes", "1"]) == 1
        printed_batch = json.loads(capsys.readouterr().out)
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(json.dumps(self._spec(8)))
        assert main(["simulate", str(spec_path), "--json"]) == 0
        printed_simulate = json.loads(capsys.readouterr().out)
        with BackgroundServer(ScenarioService(cache=ResultCache(None))) as srv:
            with ServiceClient("127.0.0.1", srv.port, timeout=120.0) as client:
                wire_batch = client.batch(batch)
                wire_simulate = client.simulate(self._spec(8))
        for printed, wire in ((printed_batch, wire_batch), (printed_simulate, wire_simulate)):
            assert printed.pop("wall_seconds") >= 0
            wire.pop("wall_seconds", None)
            assert printed == wire
        assert [item["source"] for item in printed_batch["items"]] == [
            "run", "error", "error", "dedup"
        ]
        assert (printed_batch["misses"], printed_batch["errors"]) == (1, 2)
        assert printed_simulate["key"] == cache_key(ScenarioSpec.from_dict(self._spec(8)))


class TestLoadCommand:
    def test_generate_writes_deterministic_corpus(self, capsys, tmp_path):
        from repro.service.load import corpus_json

        path = tmp_path / "corpus.json"
        assert main(
            ["load", "--generate", "--corpus", str(path), "--unique", "6", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        entries = json.loads(path.read_text())
        assert len(entries) == 7  # 6 unique + 6 // 4 duplicates
        for entry in entries:
            ScenarioSpec.from_dict(entry).validate()
        assert path.read_text() == corpus_json(seed=3, unique=6)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["load", "--smoke"])
        assert args.corpus == "benchmarks/load/corpus.json"
        assert args.smoke is True
        assert args.concurrency == 4
        assert args.service_args == []

    def test_flags_after_separator_go_to_the_service(self, monkeypatch, tmp_path):
        import repro.service.load as load

        corpus = tmp_path / "corpus.json"
        load.write_corpus(corpus, unique=2)
        seen = {}

        class Stop(Exception):
            pass

        def fake_drive(specs, **kwargs):
            seen.update(kwargs)
            raise Stop

        monkeypatch.setattr(load, "drive", fake_drive)
        argv = ["load", "--corpus", str(corpus), "--", "--workers", "1", "--deadline-ms", "1500"]
        with pytest.raises(Stop):
            main(argv)
        assert seen["service_args"] == ["--workers", "1", "--deadline-ms", "1500"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["load", "--service-workers", "1"])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.host == "127.0.0.1"
        assert args.workers == 0

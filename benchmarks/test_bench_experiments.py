"""Regeneration benches: one per experiment of the suite (E1–E12; ``repro list``).

Each bench regenerates the experiment's result table (the reproduction of
one paper claim) at smoke scale and asserts its headline criterion, so
``pytest benchmarks/ --benchmark-only`` both times and *validates* the full
reproduction pipeline.  The claims each table checks are the paper's
(PAPER.md); ``repro run <id> --scale paper`` regenerates the paper-scale
numbers.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import get_experiment

SEED = 2014  # SPAA vintage


def _regen(benchmark, experiment_id: str):
    spec = get_experiment(experiment_id)
    table = benchmark.pedantic(
        lambda: spec(scale="smoke", seed=SEED), rounds=1, iterations=1
    )
    assert len(table) > 0
    return table


def test_bench_e01_drift(benchmark, show):
    table = _regen(benchmark, "E1")
    show(table)
    assert all(row["drift_ok"] for row in table.rows)


def test_bench_e02_upper_bound(benchmark, show):
    table = _regen(benchmark, "E2")
    show(table)
    assert all(row["win_rate"] == 1.0 for row in table.rows)
    assert all(row["ratio"] < 2.0 for row in table.rows)


def test_bench_e03_polylog(benchmark, show):
    table = _regen(benchmark, "E3")
    show(table)
    assert all(row["rounds_per_logn"] < 5.0 for row in table.rows)


def test_bench_e04_lower_bound(benchmark, show):
    table = _regen(benchmark, "E4")
    show(table)
    doubling = table.column("median_doubling_rounds")
    assert doubling == sorted(doubling)


def test_bench_e05_uniqueness(benchmark, show):
    table = _regen(benchmark, "E5")
    show(table)
    for row in table.rows:
        if row["in_M3"]:
            assert row["win_rate"] >= 0.9
        else:
            assert row["win_rate"] <= 0.75


def test_bench_e06_hplurality(benchmark, show):
    table = _regen(benchmark, "E6")
    show(table)
    rounds = table.column("median_rounds")
    assert rounds == sorted(rounds, reverse=True)
    assert all(row["rounds_x_h2_over_k"] > 0.5 for row in table.rows)


def test_bench_e07_bias_tightness(benchmark, show):
    table = _regen(benchmark, "E7")
    show(table)
    floor = 1 / (16 * math.e)
    for row in table.rows:
        if row["alpha"] <= 1.0:
            assert row["ci_low"] >= floor


def test_bench_e08_adversary(benchmark, show):
    table = _regen(benchmark, "E8")
    show(table)
    small_f = [r for r in table.rows if r["F_over_s_lambda"] <= 0.2]
    assert all(r["plurality_survived_rate"] == 1.0 for r in small_f)


def test_bench_e09_landscape(benchmark, show):
    table = _regen(benchmark, "E9")
    show(table)
    danger = {r["dynamics"]: r["value"] for r in table.rows if r["panel"] == "d-danger"}
    assert danger["undecided"] > danger["3-majority"]


def test_bench_e10_phases(benchmark, show):
    table = _regen(benchmark, "E10")
    show(table)
    by_phase = {row["phase"]: row for row in table.rows}
    assert by_phase["plurality-to-majority"]["mean_growth_factor"] > 1.0
    assert by_phase["majority-to-almost-all"]["mean_decay_ratio"] < 8 / 9


def test_bench_e11_crossmodel(benchmark, show):
    table = _regen(benchmark, "E11")
    show(table)
    und = {r["model"]: r for r in table.rows if r["panel"] == "b-undecided"}
    assert und["sequential"]["plurality_win_rate"] >= 0.9
    assert und["parallel"]["plurality_win_rate"] >= 0.9


def test_bench_e12_meanfield(benchmark, show):
    table = _regen(benchmark, "E12")
    show(table)
    rows = sorted(table.rows, key=lambda r: r["bias_over_sqrt_n"])
    assert rows[0]["stochastic_win_rate"] < 0.5
    assert rows[-1]["stochastic_win_rate"] >= 0.95

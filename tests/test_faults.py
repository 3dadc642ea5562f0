"""The fault-injection registry: plans, triggers, determinism, inheritance."""

import json

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no plan armed."""
    faults.disarm()
    yield
    faults.disarm()


def plan_dict(**overrides):
    base = {
        "seed": 7,
        "rules": [{"point": "executor.worker-crash", "probability": 0.5}],
    }
    base.update(overrides)
    return base


class TestFaultRule:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.FaultRule(point="executor.nope", probability=0.5)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(ValueError, match="exactly one trigger"):
            faults.FaultRule(point="executor.worker-crash")
        with pytest.raises(ValueError, match="exactly one trigger"):
            faults.FaultRule(point="executor.worker-crash", probability=0.5, nth=2)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match=r"probability must be in \[0, 1\]"):
            faults.FaultRule(point="executor.worker-crash", probability=1.5)

    def test_nth_and_times_bounds(self):
        with pytest.raises(ValueError, match="nth must be >= 1"):
            faults.FaultRule(point="executor.worker-crash", nth=0)
        with pytest.raises(ValueError, match="times must be >= 1"):
            faults.FaultRule(point="executor.worker-crash", nth=1, times=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-rule keys"):
            faults.FaultRule.from_dict({"point": "executor.worker-crash", "prob": 0.5})

    def test_round_trip(self):
        rule = faults.FaultRule(
            point="executor.worker-stall", nth=5, times=1, params={"seconds": 3.0}
        )
        assert faults.FaultRule.from_dict(rule.to_dict()) == rule


class TestFaultPlan:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule"):
            faults.FaultPlan(
                rules=(
                    faults.FaultRule(point="cache.read-error", nth=1),
                    faults.FaultRule(point="cache.read-error", nth=2),
                )
            )

    def test_json_round_trip(self):
        plan = faults.FaultPlan.from_dict(plan_dict())
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_plan_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            faults.FaultPlan.from_dict(plan_dict(extra=1))

    def test_committed_chaos_plan_parses(self):
        plan = faults.FaultPlan.from_file("benchmarks/load/chaos_plan.json")
        points = {rule.point for rule in plan.rules}
        assert "executor.worker-crash" in points
        assert "cache.corrupt-payload" in points


class TestFiring:
    def test_disarmed_fire_is_none(self):
        assert faults.fire("executor.worker-crash") is None
        assert faults.describe() is None

    def test_nth_trigger_fires_exactly_once_with_times(self):
        faults.arm({"rules": [{"point": "cache.read-error", "nth": 3, "times": 1}]})
        fired = [faults.fire("cache.read-error") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_nth_without_times_fires_only_on_the_nth_hit(self):
        faults.arm({"rules": [{"point": "cache.read-error", "nth": 2}]})
        fired = [faults.fire("cache.read-error") is not None for _ in range(4)]
        assert fired == [False, True, False, False]

    def test_probability_stream_is_deterministic_across_rearm(self):
        plan = plan_dict()
        faults.arm(plan)
        first = [faults.fire("executor.worker-crash") is not None for _ in range(50)]
        faults.arm(plan)  # re-arm resets counters AND streams
        second = [faults.fire("executor.worker-crash") is not None for _ in range(50)]
        assert first == second
        assert any(first) and not all(first)  # p=0.5 over 50 draws

    def test_different_seeds_give_different_schedules(self):
        faults.arm(plan_dict(seed=1))
        one = [faults.fire("executor.worker-crash") is not None for _ in range(64)]
        faults.arm(plan_dict(seed=2))
        two = [faults.fire("executor.worker-crash") is not None for _ in range(64)]
        assert one != two

    def test_points_draw_independent_streams(self):
        faults.arm(
            {
                "seed": 3,
                "rules": [
                    {"point": "executor.worker-crash", "probability": 0.5},
                    {"point": "cache.read-error", "probability": 0.5},
                ],
            }
        )
        crash = [faults.fire("executor.worker-crash") is not None for _ in range(64)]
        faults.arm(
            {"seed": 3, "rules": [{"point": "executor.worker-crash", "probability": 0.5}]}
        )
        crash_alone = [
            faults.fire("executor.worker-crash") is not None for _ in range(64)
        ]
        # Removing the other point's rule must not shift this point's draws.
        assert crash == crash_alone

    def test_times_caps_probability_rules(self):
        faults.arm(
            {"rules": [{"point": "cache.read-error", "probability": 1.0, "times": 2}]}
        )
        fired = sum(faults.fire("cache.read-error") is not None for _ in range(10))
        assert fired == 2

    def test_fire_returns_the_rule_with_params(self):
        faults.arm(
            {
                "rules": [
                    {
                        "point": "executor.worker-stall",
                        "nth": 1,
                        "params": {"seconds": 0.25},
                    }
                ]
            }
        )
        rule = faults.fire("executor.worker-stall")
        assert rule is not None
        assert rule.params["seconds"] == 0.25

    def test_describe_reports_hits_and_fired(self):
        faults.arm({"rules": [{"point": "cache.read-error", "nth": 2}]})
        for _ in range(3):
            faults.fire("cache.read-error")
        state = faults.describe()
        assert state["points"]["cache.read-error"] == {"hits": 3, "fired": 1}
        json.dumps(state)  # must be JSON-able for /v1/stats


class TestEnvInheritance:
    def test_inline_json(self):
        plan = faults.arm_from_env({faults.ENV_VAR: json.dumps(plan_dict())})
        assert plan is not None
        assert faults.describe()["seed"] == plan.seed
        assert sorted(faults.describe()["points"]) == sorted({r.point for r in plan.rules})

    def test_at_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_dict()), encoding="utf-8")
        plan = faults.arm_from_env({faults.ENV_VAR: f"@{path}"})
        assert plan is not None
        assert plan.seed == 7

    def test_unset_is_noop(self):
        faults.arm(plan_dict())
        assert faults.arm_from_env({}) is None
        assert faults.describe() is not None  # arm_from_env without var leaves state

    def test_exceptions_are_typed(self):
        assert issubclass(faults.InjectedWorkerCrash, faults.InjectedFault)
        assert issubclass(faults.InjectedFault, Exception)

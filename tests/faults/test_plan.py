"""Fault-plan format tests: parsing, validation, serialisation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ACTION_HANG,
    ACTION_RAISE,
    ACTION_TORN_WRITE,
    FaultPlan,
    FaultRule,
    coerce_plan,
)


class TestFaultRuleValidation:
    def test_minimal_rule(self):
        rule = FaultRule(site="store.append", action=ACTION_RAISE)
        assert rule.fire_limit == 1

    def test_site_required(self):
        with pytest.raises(ConfigurationError, match="site"):
            FaultRule(site="", action=ACTION_RAISE)

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultRule(site="store.append", action="explode")

    def test_drop_action_is_gone(self):
        # ``drop`` severed a campaign-service WebSocket; with the service
        # gone no site can interpret it, so a plan naming it fails loudly.
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultPlan.from_json(
                {"rules": [{"site": "store.append", "action": "drop"}]}
            )

    def test_nth_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="nth"):
            FaultRule(site="s", action=ACTION_RAISE, nth=0)

    def test_p_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="p must be"):
                FaultRule(site="s", action=ACTION_RAISE, p=bad, seed=1)

    def test_p_needs_seed(self):
        with pytest.raises(ConfigurationError, match="seed"):
            FaultRule(site="s", action=ACTION_RAISE, p=0.5)

    def test_nth_and_p_exclusive(self):
        with pytest.raises(ConfigurationError, match="nth or p"):
            FaultRule(site="s", action=ACTION_RAISE, nth=1, p=0.5, seed=1)

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigurationError, match="times"):
            FaultRule(site="s", action=ACTION_RAISE, times=-1)

    def test_negative_seconds_rejected(self):
        with pytest.raises(ConfigurationError, match="seconds/bytes"):
            FaultRule(site="s", action="hang", seconds=-1.0)


class TestFireLimit:
    def test_bare_and_nth_default_to_one(self):
        assert FaultRule(site="s", action=ACTION_RAISE).fire_limit == 1
        assert (
            FaultRule(site="s", action=ACTION_RAISE, nth=3).fire_limit == 1
        )

    def test_probability_defaults_to_unlimited(self):
        rule = FaultRule(site="s", action=ACTION_RAISE, p=0.5, seed=7)
        assert rule.fire_limit == 0

    def test_explicit_times_wins(self):
        rule = FaultRule(site="s", action=ACTION_RAISE, times=4)
        assert rule.fire_limit == 4


class TestMatching:
    def test_site_glob(self):
        rule = FaultRule(site="store.*", action=ACTION_RAISE)
        assert rule.matches("store.append", None)
        assert rule.matches("store.get", "any")
        assert not rule.matches("queue.attempt", None)

    def test_job_id_glob(self):
        rule = FaultRule(
            site="queue.attempt", action=ACTION_RAISE, job_id="sweep/*#1"
        )
        assert rule.matches("queue.attempt", "sweep/shard0#1")
        assert not rule.matches("queue.attempt", "sweep/shard0#2")

    def test_job_id_rule_never_matches_anonymous_call(self):
        rule = FaultRule(site="s", action=ACTION_RAISE, job_id="x")
        assert not rule.matches("s", None)


class TestPlanSerialisation:
    def test_round_trip(self):
        plan = FaultPlan.from_json(
            {
                "rules": [
                    {"site": "store.append", "action": "torn_write",
                     "bytes": 7, "job_id": "a*"},
                    {"site": "queue.*", "action": "raise", "p": 0.25,
                     "seed": 3, "message": "chaos"},
                ]
            }
        )
        again = FaultPlan.loads(plan.dumps())
        assert again == plan
        assert again.rules[0].bytes == 7
        assert again.rules[1].seed == 3

    def test_bare_rule_list_accepted(self):
        plan = FaultPlan.from_json(
            [{"site": "s", "action": ACTION_HANG}]
        )
        assert plan.rules[0].action == ACTION_HANG

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault rule"):
            FaultPlan.from_json(
                {"rules": [{"site": "s", "action": "raise", "when": "now"}]}
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.loads("{nope")

    def test_rules_must_be_a_list(self):
        with pytest.raises(ConfigurationError, match="rules"):
            FaultPlan.from_json({"rules": "all of them"})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"rules": [{"site": "codec.unpack", "action": "raise"}]}',
            encoding="utf-8",
        )
        plan = FaultPlan.load(path)
        assert plan.rules[0].site == "codec.unpack"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(tmp_path / "ghost.json")


class TestCoercePlan:
    def test_none_passes_through(self):
        assert coerce_plan(None) is None

    def test_plan_passes_through(self):
        plan = FaultPlan(
            (FaultRule(site="s", action=ACTION_TORN_WRITE),)
        )
        assert coerce_plan(plan) is plan

    def test_mapping(self):
        plan = coerce_plan({"rules": [{"site": "s", "action": "raise"}]})
        assert plan is not None and len(plan.rules) == 1

    def test_inline_json_text(self):
        plan = coerce_plan('{"rules": [{"site": "s", "action": "hang"}]}')
        assert plan is not None
        assert plan.rules[0].action == ACTION_HANG

    def test_path(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"rules": []}', encoding="utf-8")
        plan = coerce_plan(str(path))
        assert plan == FaultPlan()

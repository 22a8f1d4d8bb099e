"""Fault runtime tests: activation, triggers, actions, env plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.faults import (
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    FaultPlan,
    FiredFault,
    InjectedFault,
    activate,
    active_faults,
    active_plan,
    deactivate,
    fault_site,
    faults_active,
    reset,
)
from repro.faults.plan import DEFAULT_TORN_BYTES

RAISE_ON_APPEND = {
    "rules": [{"site": "store.append", "action": "raise"}]
}


class TestDisabled:
    def test_probe_is_none_without_plan(self):
        assert fault_site("store.append") is None
        assert not faults_active()
        assert active_plan() is None

    def test_env_checked_once(self, monkeypatch):
        assert fault_site("store.append") is None
        # Arming the env *after* the first probe changes nothing: the
        # env is consulted once per process (workers read it fresh).
        monkeypatch.setenv(
            FAULTS_ENV_VAR, '{"rules": [{"site": "*", "action": "raise"}]}'
        )
        assert fault_site("store.append") is None


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        activate(
            {"rules": [{"site": "s", "action": "raise", "nth": 3}]}
        )
        assert fault_site("s") is None
        assert fault_site("s") is None
        with pytest.raises(InjectedFault):
            fault_site("s")
        # nth rules default to a single fire — the 3rd call of the
        # counter never comes around again.
        for _ in range(5):
            assert fault_site("s") is None

    def test_times_caps_total_fires(self):
        activate(
            {"rules": [{"site": "s", "action": "raise",
                        "nth": 1, "times": 2}]}
        )
        with pytest.raises(InjectedFault):
            fault_site("s")
        # After a fire the call counter keeps advancing, so nth=1
        # cannot re-trigger; times>1 only matters for p-rules.
        assert fault_site("s") is None

    def test_probability_is_seed_deterministic(self):
        def pattern():
            reset()
            activate(
                {"rules": [{"site": "s", "action": "raise",
                            "p": 0.5, "seed": 42}]}
            )
            fired = []
            for _ in range(32):
                try:
                    fault_site("s")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        first = pattern()
        assert first == pattern()
        assert any(first) and not all(first)

    def test_job_id_context_filters(self):
        activate(
            {"rules": [{"site": "queue.attempt", "action": "raise",
                        "job_id": "c1#1"}]}
        )
        assert fault_site("queue.attempt", "c2#1") is None
        assert fault_site("queue.attempt", "c1#2") is None
        with pytest.raises(InjectedFault):
            fault_site("queue.attempt", "c1#1")

    def test_first_matching_rule_wins(self):
        activate(
            {"rules": [
                {"site": "s", "action": "torn_write", "bytes": 9},
                {"site": "s", "action": "raise"},
            ]}
        )
        fired = fault_site("s")
        assert isinstance(fired, FiredFault)
        assert fired.torn_bytes == 9
        # First rule exhausted: the second now gets its turn.
        with pytest.raises(InjectedFault):
            fault_site("s")


class TestActions:
    def test_raise_message(self):
        activate(
            {"rules": [{"site": "s", "action": "raise",
                        "message": "kaboom"}]}
        )
        with pytest.raises(InjectedFault, match="kaboom"):
            fault_site("s")

    def test_raise_is_an_ioerror(self):
        activate(RAISE_ON_APPEND)
        with pytest.raises(IOError):
            fault_site("store.append")

    def test_hang_sleeps_then_continues(self):
        activate(
            {"rules": [{"site": "s", "action": "hang",
                        "seconds": 0.05}]}
        )
        start = time.monotonic()
        assert fault_site("s") is None
        assert time.monotonic() - start >= 0.05

    def test_torn_write_returned_to_site(self):
        activate(
            {"rules": [{"site": "store.append", "action": "torn_write"}]}
        )
        fired = fault_site("store.append")
        assert isinstance(fired, FiredFault)
        assert fired.action == "torn_write"
        assert fired.torn_bytes == DEFAULT_TORN_BYTES

    def test_crash_exits_with_the_distinctive_code(self):
        code = (
            "from repro.faults import activate, fault_site\n"
            "activate({'rules': [{'site': 's', 'action': 'crash'}]})\n"
            "fault_site('s')\n"
            "raise SystemExit(0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(
                os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                )
            ),
        )
        assert proc.returncode == CRASH_EXIT_CODE


class TestActivationPlumbing:
    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            '{"rules": [{"site": "store.append", "action": "raise"}]}',
        )
        reset()
        with pytest.raises(InjectedFault):
            fault_site("store.append")

    def test_env_plan_file(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"rules": [{"site": "x", "action": "raise"}]}',
            encoding="utf-8",
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, str(path))
        reset()
        assert faults_active()

    def test_deactivate(self):
        activate(RAISE_ON_APPEND)
        assert faults_active()
        deactivate()
        assert fault_site("store.append") is None

    def test_active_faults_scopes_and_exports(self):
        plan = FaultPlan.from_json(RAISE_ON_APPEND)
        assert FAULTS_ENV_VAR not in os.environ
        with active_faults(plan) as armed:
            assert armed == plan
            assert os.environ[FAULTS_ENV_VAR] == plan.dumps()
            with pytest.raises(InjectedFault):
                fault_site("store.append")
        assert FAULTS_ENV_VAR not in os.environ
        assert not faults_active()

    def test_active_faults_none_is_a_noop(self):
        with active_faults(None) as armed:
            assert armed is None
            assert not faults_active()

    def test_active_faults_restores_previous_plan(self):
        outer = activate({"rules": [{"site": "a", "action": "raise"}]})
        with active_faults(RAISE_ON_APPEND):
            assert active_plan() != outer
        assert active_plan() == outer

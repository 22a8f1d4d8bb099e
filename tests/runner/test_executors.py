"""Execution backends: kind resolution, pool fairness, fleet leases.

The fleet tests exercise real worker subprocesses (spawned via
``repro worker``), real lease transcripts, and real SIGKILLs — they are
the repo's proof that a lost worker never loses or duplicates a
result.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import wait

import pytest

from repro.errors import ConfigurationError
from repro.runner.events import (
    EVENT_LOST,
    EVENT_REQUEUED,
    EVENT_RETRY,
)
from repro.runner.executors import (
    EXECUTOR_ENV_VAR,
    OUTCOME_LOST,
    OUTCOME_OK,
    FleetExecutor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor_kind,
)
from repro.runner.executors.fleet import (
    TERMINAL_LEASE_STATES,
    FleetExecutor as _FleetExecutor,
)
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs
from repro.runner.store import ResultStore
from repro.telemetry import metrics

assert _FleetExecutor is FleetExecutor


def _spec(job_id, target, retries=0, deadline_s=None, **params):
    return JobSpec(
        job_id=job_id,
        kind="callable",
        target=f"runner_workers:{target}",
        params=params,
        retries=retries,
        deadline_s=deadline_s,
    )


def _terminal_leases(lease_path):
    """Latest lease state per key from a fleet transcript."""
    store = ResultStore(lease_path, backend="jsonl")
    try:
        view = store.latest_by_key("ok")
    finally:
        store.close()
    return {
        key: (record.get("value") or {}).get("state")
        for key, record in view.items()
    }


class TestKindResolution:
    def test_defaults_by_jobs(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor_kind(None, 1) == "serial"
        assert resolve_executor_kind(None, 4) == "pool"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "fleet")
        assert resolve_executor_kind(None, 4) == "fleet"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "fleet")
        assert resolve_executor_kind("serial", 4) == "serial"

    def test_unknown_choice_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor_kind("threads", 2)

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "threads")
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor_kind(None, 2)

    def test_make_executor_kinds(self):
        serial = make_executor("serial", jobs=1)
        assert isinstance(serial, SerialExecutor)
        pool = make_executor("pool", jobs=2)
        assert isinstance(pool, PoolExecutor)
        pool.shutdown()
        fleet = make_executor("fleet", jobs=2)
        assert isinstance(fleet, FleetExecutor)
        fleet.shutdown()

    def test_run_jobs_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            run_jobs([_spec("a", "identity", value=1)], executor="threads")

    def test_serial_kind_with_parallel_jobs(self):
        # executor="serial" forces in-process execution even at jobs=4.
        results = run_jobs(
            [_spec("a", "identity", value=3)], jobs=4, executor="serial"
        )
        assert results["a"].value == 3
        assert results["a"].worker_pid == os.getpid()


class TestPoolBackend:
    def test_queued_behind_jobs_unaffected_by_pool_break(self, tmp_path):
        """A broken pool only charges the jobs that were in flight.

        Capacity-capped dispatch means queued-behind jobs are never
        handed to the pool that broke: they run later, first try, with
        no lost/retry events of their own.
        """
        events = []
        specs = [
            _spec("killer", "die", retries=1),
            _spec("innocent", "slow_identity", value=11, delay_s=0.4),
            _spec("q1", "add", a=1, b=2),
            _spec("q2", "add", a=3, b=4),
            _spec("q3", "add", a=5, b=6),
        ]
        results = run_jobs(
            specs, jobs=2, executor="pool", observers=[events.append]
        )
        assert results["killer"].status == "failed"
        assert "worker process died" in results["killer"].error
        assert results["innocent"].value == 11
        assert [results[f"q{i}"].value for i in (1, 2, 3)] == [3, 7, 11]
        for queued in ("q1", "q2", "q3"):
            assert results[queued].attempts == 1
            kinds = {e.kind for e in events if e.job_id == queued}
            assert EVENT_LOST not in kinds
            assert EVENT_RETRY not in kinds

    def test_lost_events_on_worker_crash(self):
        events = []
        specs = [
            _spec("killer", "die", retries=1),
            _spec("bystander", "slow_identity", value=4, delay_s=0.3),
        ]
        results = run_jobs(
            specs, jobs=2, executor="pool", observers=[events.append]
        )
        assert results["killer"].status == "failed"
        assert results["bystander"].value == 4
        killer_kinds = [e.kind for e in events if e.job_id == "killer"]
        assert EVENT_LOST in killer_kinds
        assert EVENT_REQUEUED in killer_kinds

    def test_submit_after_unpolled_break_uses_a_fresh_pool(self):
        """A worker death between two submissions breaks the shared
        pool before any poll sees it; the next submit still lands."""
        backend = PoolExecutor(2)
        try:
            killer = backend.submit(_spec("killer", "die"), 1, None)
            done, _ = wait([backend._tickets[killer].future], timeout=30)
            assert done
            after = backend.submit(_spec("after", "add", a=1, b=2), 1, None)
            outcomes = {}
            give_up = time.monotonic() + 30
            while len(outcomes) < 2 and time.monotonic() < give_up:
                for ticket in backend.poll(1.0):
                    outcomes[ticket] = backend.collect(ticket)
        finally:
            backend.shutdown()
        assert outcomes[killer].status == OUTCOME_LOST
        assert outcomes[killer].requeue
        assert outcomes[after].status == OUTCOME_OK
        assert outcomes[after].value == 3


class TestFleetBackend:
    def test_parity_with_serial(self, tmp_path):
        specs = [
            _spec(f"j{i}", "add", a=i, b=i * 10) for i in range(4)
        ]
        serial = run_jobs(specs, executor="serial")
        fleet = run_jobs(specs, jobs=2, executor="fleet")
        assert {k: r.value for k, r in fleet.items()} == {
            k: r.value for k, r in serial.items()
        }
        assert all(r.status == "ok" for r in fleet.values())
        pids = {r.worker_pid for r in fleet.values()}
        assert os.getpid() not in pids  # really ran out of process

    def test_job_error_is_structured_not_lost(self):
        events = []
        results = run_jobs(
            [_spec("bad", "boom")],
            jobs=1,
            executor="fleet",
            observers=[events.append],
        )
        assert results["bad"].status == "failed"
        assert "RuntimeError: boom" in results["bad"].error
        assert EVENT_LOST not in {e.kind for e in events}

    def test_worker_crash_requeues_and_converges(self, tmp_path):
        marker = str(tmp_path / "crash-once")
        events = []
        results = run_jobs(
            [
                _spec("c1", "flaky_die", retries=2, marker=marker, value=7),
                _spec("c2", "add", a=3, b=4),
            ],
            jobs=2,
            executor="fleet",
            observers=[events.append],
        )
        assert results["c1"].status == "ok"
        assert results["c1"].value == 7
        assert results["c1"].attempts == 2
        assert results["c2"].value == 7
        kinds = [e.kind for e in events if e.job_id == "c1"]
        assert EVENT_LOST in kinds
        assert EVENT_REQUEUED in kinds

    def test_worker_crash_without_retries_fails_loudly(self, tmp_path):
        marker = str(tmp_path / "crash-final")
        results = run_jobs(
            [_spec("c1", "flaky_die", marker=marker)],
            jobs=1,
            executor="fleet",
        )
        assert results["c1"].status == "failed"
        assert "worker process died" in results["c1"].error

    def test_sigkill_mid_job_never_loses_the_result(self, tmp_path):
        """kill -9 on a live worker: requeued, re-run, exactly one ok."""
        backend = FleetExecutor(2, fleet_dir=str(tmp_path / "fleet"))
        killed = []

        def assassin():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not killed:
                for worker in backend.workers():
                    if worker.job_id == "victim":
                        os.kill(worker.pid, signal.SIGKILL)
                        killed.append(worker.pid)
                        return
                time.sleep(0.05)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        events = []
        results = run_jobs(
            [
                _spec(
                    "victim", "slow_identity", retries=1,
                    value=9, delay_s=1.5,
                ),
                _spec("bystander", "add", a=1, b=1),
            ],
            executor=backend,
            observers=[events.append],
        )
        thread.join(timeout=30.0)
        assert killed, "assassin never saw the victim worker"
        assert results["victim"].status == "ok"
        assert results["victim"].value == 9
        assert results["victim"].attempts == 2
        assert results["bystander"].value == 2
        kinds = [e.kind for e in events if e.job_id == "victim"]
        assert EVENT_LOST in kinds
        assert EVENT_REQUEUED in kinds
        # Exactly one terminal "finished" event for the victim.
        assert kinds.count("finished") == 1
        leases = _terminal_leases(str(tmp_path / "fleet" / "leases.jsonl"))
        assert leases, "no leases recorded"
        assert all(
            state in TERMINAL_LEASE_STATES for state in leases.values()
        )

    def test_heartbeat_drop_expires_lease(self, tmp_path):
        """A silent worker (beats dropped) is fenced at lease expiry."""
        marks = metrics().snapshot()["counters"]
        before = marks.get("executor.leases.expired", 0)
        backend = FleetExecutor(
            1,
            fleet_dir=str(tmp_path / "fleet"),
            lease_ttl_s=1.0,
            startup_grace_s=1.0,
        )
        results = run_jobs(
            [_spec("h1", "slow_identity", value=5, delay_s=30.0)],
            executor=backend,
            faults={
                "rules": [
                    {
                        "site": "lease.renew",
                        "action": "drop",
                        "times": 1000,
                    },
                ]
            },
        )
        assert results["h1"].status == "failed"
        assert "worker process died" in results["h1"].error
        assert "lease expired" in results["h1"].error
        after = metrics().snapshot()["counters"]
        assert after.get("executor.leases.expired", 0) > before
        leases = _terminal_leases(str(tmp_path / "fleet" / "leases.jsonl"))
        assert "expired" in set(leases.values())

    def test_straggler_twin_first_result_wins(self, tmp_path):
        marker = str(tmp_path / "slow-once")
        backend = FleetExecutor(
            2,
            fleet_dir=str(tmp_path / "fleet"),
            straggler_pct=50.0,
            straggler_factor=1.0,
            straggler_min_done=1,
        )
        specs = [
            _spec("fast1", "add", a=1, b=1),
            _spec("fast2", "add", a=2, b=2),
            _spec("drag", "slow_once", marker=marker, value=5),
        ]
        before = metrics().snapshot()["counters"].get(
            "executor.speculative.wins", 0
        )
        results = run_jobs(specs, executor=backend)
        assert results["drag"].status == "ok"
        assert results["drag"].value == 5
        assert results["drag"].attempts == 1  # a twin is not a retry
        after = metrics().snapshot()["counters"].get(
            "executor.speculative.wins", 0
        )
        assert after > before
        leases = _terminal_leases(str(tmp_path / "fleet" / "leases.jsonl"))
        assert "cancelled" in set(leases.values())  # the losing twin
        assert all(
            state in TERMINAL_LEASE_STATES for state in leases.values()
        )

    def test_same_key_duplicates_resolve_cached(self):
        specs = [
            _spec("first", "add", a=2, b=3),
            _spec("twin", "add", a=2, b=3),
        ]
        results = run_jobs(specs, jobs=2, executor="fleet")
        statuses = sorted(r.status for r in results.values())
        assert statuses == ["cached", "ok"]
        assert {r.value for r in results.values()} == {5}

    def test_cancel_kills_worker(self, tmp_path):
        backend = FleetExecutor(1, fleet_dir=str(tmp_path / "fleet"))
        ticket = backend.submit(
            _spec("hang", "slow_identity", value=1, delay_s=60.0), 1, None
        )
        deadline = time.monotonic() + 20.0
        while not backend.workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = backend.workers()
        assert workers
        assert backend.cancel(ticket) is True
        backend.shutdown()
        for worker in workers:
            with pytest.raises(OSError):
                os.kill(worker.pid, 0)
        leases = _terminal_leases(str(tmp_path / "fleet" / "leases.jsonl"))
        assert set(leases.values()) == {"cancelled"}

    def test_orphan_fencing_on_restart(self, tmp_path):
        """A new supervisor over an old transcript fences stale leases."""
        fleet_dir = str(tmp_path / "fleet")
        first = FleetExecutor(1, fleet_dir=fleet_dir)
        from repro.runner.executors.fleet import (
            LEASE_RUNNING,
            lease_record,
        )

        store = ResultStore(
            os.path.join(fleet_dir, "leases.jsonl"), backend="jsonl"
        )
        # A non-terminal lease owned by a pid that no longer exists —
        # what a supervisor crash leaves behind.
        store.append(
            lease_record(
                "lease/dead#1#w9999", "ghost", "w9999", LEASE_RUNNING,
                attempt=1, pid=2**22 - 1,
            )
        )
        store.close()
        first.shutdown()
        before = metrics().snapshot()["counters"].get(
            "executor.leases.orphaned", 0
        )
        second = FleetExecutor(1, fleet_dir=fleet_dir)
        second.shutdown()
        after = metrics().snapshot()["counters"].get(
            "executor.leases.orphaned", 0
        )
        assert after > before
        leases = _terminal_leases(os.path.join(fleet_dir, "leases.jsonl"))
        assert leases["lease/dead#1#w9999"] == "orphaned"


class TestCampaignIntegration:
    def test_campaign_fleet_pins_dir_next_to_store(self, tmp_path):
        from repro.runner.campaign import Campaign, run_campaign

        store_path = str(tmp_path / "results.jsonl")
        campaign = Campaign("fleet-camp")
        campaign.call("a", "runner_workers:add", a=1, b=2)
        campaign.call("b", "runner_workers:add", a=3, b=4)
        result = run_campaign(
            campaign, jobs=2, store_path=store_path, executor="fleet"
        )
        assert result.ok
        assert result.results["a"].value == 3
        assert result.results["b"].value == 7
        lease_path = os.path.join(store_path + ".fleet", "leases.jsonl")
        assert os.path.exists(lease_path)
        leases = _terminal_leases(lease_path)
        assert leases
        assert all(
            state in TERMINAL_LEASE_STATES for state in leases.values()
        )
        # Resumption: a re-run over the same store is all cache hits —
        # no new worker ever spawns.
        again = run_campaign(
            campaign, jobs=2, store_path=store_path, executor="fleet"
        )
        assert again.ok
        assert all(r.status == "cached" for r in again.results.values())

"""Execution backends: kind resolution and pool fairness."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import wait

import pytest

from repro.errors import ConfigurationError
from repro.runner.events import (
    EVENT_FINISHED,
    EVENT_LOST,
    EVENT_REQUEUED,
    EVENT_RETRY,
    EVENT_STARTED,
)
from repro.runner.executors import (
    EXECUTOR_ENV_VAR,
    OUTCOME_LOST,
    OUTCOME_OK,
    PoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor_kind,
)
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs


def _spec(job_id, target, retries=0, deadline_s=None, **params):
    return JobSpec(
        job_id=job_id,
        kind="callable",
        target=f"runner_workers:{target}",
        params=params,
        retries=retries,
        deadline_s=deadline_s,
    )


class TestKindResolution:
    def test_defaults_by_jobs(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor_kind(None, 1) == "serial"
        assert resolve_executor_kind(None, 4) == "pool"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "pool")
        assert resolve_executor_kind(None, 1) == "pool"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "pool")
        assert resolve_executor_kind("serial", 4) == "serial"

    def test_unknown_choice_rejected(self):
        for kind in ("threads", "fleet"):
            with pytest.raises(ConfigurationError, match="unknown executor"):
                resolve_executor_kind(kind, 2)

    def test_unknown_env_rejected(self, monkeypatch):
        for kind in ("threads", "fleet"):
            monkeypatch.setenv(EXECUTOR_ENV_VAR, kind)
            with pytest.raises(
                ConfigurationError, match=r"known: \('serial', 'pool'\)"
            ):
                resolve_executor_kind(None, 2)

    def test_make_executor_kinds(self):
        serial = make_executor("serial", jobs=1)
        assert isinstance(serial, SerialExecutor)
        pool = make_executor("pool", jobs=2)
        assert isinstance(pool, PoolExecutor)
        pool.shutdown()

    def test_run_jobs_rejects_unknown_kind(self):
        for kind in ("threads", "fleet"):
            with pytest.raises(ConfigurationError, match="unknown executor"):
                run_jobs([_spec("a", "identity", value=1)], executor=kind)

    def test_serial_kind_with_parallel_jobs(self):
        # executor="serial" forces in-process execution even at jobs=4.
        results = run_jobs(
            [_spec("a", "identity", value=3)], jobs=4, executor="serial"
        )
        assert results["a"].value == 3
        assert results["a"].worker_pid == os.getpid()


class TestPoolBackend:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_queued_behind_jobs_unaffected_by_pool_break(
        self, tmp_path, jobs
    ):
        """A broken pool only charges the jobs a worker had started.

        The pool holds one attempt queued behind its workers.  When the
        pool breaks, that attempt moves to the replacement pool unseen;
        later jobs wait in the scheduler.  Either way they run first
        try, with no lost/retry events of their own.
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
            specs, jobs=jobs, executor="pool", observers=[events.append]
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

    def test_suspect_waits_for_a_free_worker(self):
        """A suspect's solo run never adds a worker beyond ``jobs``.

        On one worker, the attempt queued behind the killer moves to the
        replacement pool and runs there; the killer's solo retry starts
        only after it finishes.
        """
        events = []
        results = run_jobs(
            [
                _spec("killer", "die", retries=1),
                _spec("innocent", "slow_identity", value=5, delay_s=0.4),
            ],
            jobs=1, executor="pool", observers=[events.append],
        )
        assert results["killer"].status == "failed"
        assert results["innocent"].value == 5
        assert results["innocent"].attempts == 1
        order = [(e.job_id, e.kind) for e in events]
        solo_start = [
            i for i, pair in enumerate(order)
            if pair == ("killer", EVENT_STARTED)
        ][1]
        assert order.index(("innocent", EVENT_FINISHED)) < solo_start
        assert ("innocent", EVENT_LOST) not in order

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
        assert outcomes[after].status == OUTCOME_OK
        assert outcomes[after].value == 3

    def test_break_seen_by_submit_moves_queued_beside_new(self):
        """A break first seen by submit() while an attempt is queued.

        The queued attempt and the new one share one replacement pool,
        and shutdown leaves no worker process behind.
        """
        before = set(multiprocessing.active_children())
        backend = PoolExecutor(1)
        try:
            killer = backend.submit(_spec("killer", "die"), 1, None)
            queued = backend.submit(_spec("queued", "add", a=1, b=2), 1, None)
            futures = [backend._tickets[t].future for t in (killer, queued)]
            done, _ = wait(futures, timeout=30)
            assert len(done) == 2
            after = backend.submit(_spec("after", "add", a=3, b=4), 1, None)
            assert (
                backend._tickets[queued].pool is backend._tickets[after].pool
            )
            outcomes = {}
            give_up = time.monotonic() + 30
            while len(outcomes) < 3 and time.monotonic() < give_up:
                for ticket in backend.poll(1.0):
                    outcomes[ticket] = backend.collect(ticket)
        finally:
            backend.shutdown()
        assert outcomes[killer].status == OUTCOME_LOST
        assert (outcomes[queued].status, outcomes[queued].value) == (
            OUTCOME_OK, 3,
        )
        assert outcomes[queued].attempt == 1
        assert (outcomes[after].status, outcomes[after].value) == (
            OUTCOME_OK, 7,
        )
        assert set(multiprocessing.active_children()) <= before

"""Resilience tests: per-job deadlines, retry backoff, timeout events."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigurationError
from repro.runner.events import (
    EVENT_LOST,
    EVENT_REQUEUED,
    EVENT_TIMEOUT,
    TERMINAL_EVENTS,
)
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs


def sleepy_spec(job_id, delay_s, **kwargs):
    return JobSpec(
        job_id, "callable", "runner_workers:slow_identity",
        params={"value": job_id, "delay_s": delay_s}, **kwargs,
    )


class TestSpecValidation:
    def test_deadline_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="deadline_s"):
                JobSpec("j", deadline_s=bad)

    def test_backoff_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="retry_backoff_s"):
            JobSpec("j", retry_backoff_s=-0.1)

    def test_neither_knob_enters_the_key(self):
        plain = JobSpec("j", "callable", "m:f")
        tuned = JobSpec(
            "j", "callable", "m:f", deadline_s=5.0, retry_backoff_s=1.0
        )
        assert plain.key == tuned.key


class TestSerialDeadline:
    def test_hung_job_fails_fast(self):
        events = []
        start = time.monotonic()
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.2)],
            observers=[events.append],
        )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        result = results["hung"]
        assert result.status == "failed"
        assert "deadline exceeded" in result.error
        assert [e.kind for e in events] == [
            "scheduled", "started", "timeout", "failed",
        ]

    def test_timeout_event_is_not_terminal(self):
        assert EVENT_TIMEOUT not in TERMINAL_EVENTS

    def test_timeout_charges_the_attempt_and_retries(self):
        events = []
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.15, retries=1)],
            observers=[events.append],
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2
        kinds = [e.kind for e in events]
        assert kinds.count("timeout") == 2
        assert kinds[-1] == "failed"

    def test_fast_job_unaffected_by_deadline(self):
        results = run_jobs([sleepy_spec("quick", 0.0, deadline_s=10.0)])
        assert results["quick"].status == "ok"
        assert results["quick"].value == "quick"


class TestEnvDefaultDeadline:
    def test_env_var_applies_to_undeadlined_specs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0.2")
        results = run_jobs([sleepy_spec("hung", 30.0)])
        assert results["hung"].status == "failed"
        assert "deadline exceeded" in results["hung"].error

    def test_spec_deadline_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0.05")
        results = run_jobs([sleepy_spec("ok", 0.2, deadline_s=30.0)])
        assert results["ok"].status == "ok"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_JOB_DEADLINE_S"):
            run_jobs([JobSpec("j", "callable", "runner_workers:square",
                              params={"x": 1})])

    def test_non_positive_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0")
        with pytest.raises(ConfigurationError, match="positive"):
            run_jobs([JobSpec("j", "callable", "runner_workers:square",
                              params={"x": 1})])


class TestPoolDeadline:
    def test_hung_worker_evicted_sibling_survives(self):
        start = time.monotonic()
        results = run_jobs(
            [
                sleepy_spec("hung", 60.0, deadline_s=0.75),
                JobSpec("fast", "callable", "runner_workers:add",
                        params={"a": 1, "b": 1}),
            ],
            jobs=2,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        assert results["hung"].status == "failed"
        assert "deadline exceeded" in results["hung"].error
        assert results["fast"].status == "ok"
        assert results["fast"].value == 2

    def test_queued_attempt_clock_starts_when_a_worker_is_free(self):
        """A job queued behind a slow one keeps its whole deadline."""
        events = []
        results = run_jobs(
            [
                sleepy_spec("slow", 0.6, deadline_s=5.0),
                JobSpec("quick", "callable", "runner_workers:add",
                        params={"a": 1, "b": 1}, deadline_s=0.3),
            ],
            jobs=1, executor="pool", observers=[events.append],
        )
        for job_id in ("slow", "quick"):
            assert results[job_id].status == "ok"
            assert results[job_id].attempts == 1
        kinds = {e.kind for e in events}
        assert EVENT_TIMEOUT not in kinds
        assert EVENT_LOST not in kinds

    def test_queued_attempt_survives_eviction_on_one_worker(self):
        """Evicting a hung job moves the one queued behind it unseen."""
        events = []
        results = run_jobs(
            [
                sleepy_spec("hung", 60.0, deadline_s=0.75),
                JobSpec("fast", "callable", "runner_workers:add",
                        params={"a": 1, "b": 1}),
            ],
            jobs=1, executor="pool", observers=[events.append],
        )
        assert results["hung"].status == "failed"
        assert "deadline exceeded" in results["hung"].error
        assert results["fast"].status == "ok"
        assert results["fast"].value == 2
        assert results["fast"].attempts == 1
        kinds = {e.kind for e in events if e.job_id == "fast"}
        assert EVENT_LOST not in kinds
        assert EVENT_REQUEUED not in kinds

    def test_hung_worker_retry_then_give_up(self):
        results = run_jobs(
            [sleepy_spec("hung", 60.0, deadline_s=0.5, retries=1)],
            jobs=2,
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2


class _Clock:
    """Stands in for the scheduler's ``time``: still until it sleeps.

    A recorded sleep advances the clock by exactly its length, so the
    scheduler sees each backoff window end as it wakes, at once.
    """

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRetryBackoff:
    def _sleeps(self, monkeypatch, seed):
        """Recorded backoff sleeps of one all-failing retry run."""
        from repro.runner import queue as queue_module
        from repro.runner.queue import _Run

        clock = _Clock()
        monkeypatch.setattr(queue_module, "time", clock)
        drawn = []
        original = _Run.backoff_delay

        def recording(self, spec, attempt):
            drawn.append(original(self, spec, attempt))
            return drawn[-1]

        monkeypatch.setattr(_Run, "backoff_delay", recording)

        def executor(spec):
            raise RuntimeError("nope")

        run_jobs(
            [JobSpec("j", "callable", "m:f", retries=4,
                     retry_backoff_s=0.05)],
            executor=executor,
            backoff_seed=seed,
        )
        # The scheduler sleeps out each window it drew, and only those.
        assert clock.sleeps == pytest.approx(drawn, rel=0, abs=1e-12)
        return clock.sleeps

    def test_full_jitter_is_seed_deterministic(self, monkeypatch):
        first = self._sleeps(monkeypatch, seed=7)
        again = self._sleeps(monkeypatch, seed=7)
        other = self._sleeps(monkeypatch, seed=8)
        assert len(first) == 4  # one sleep per retry, none after FAILED
        assert first == again
        assert first != other

    def test_delays_respect_the_exponential_envelope(self, monkeypatch):
        delays = self._sleeps(monkeypatch, seed=3)
        for attempt, delay in enumerate(delays, start=1):
            assert 0.0 <= delay <= min(30.0, 0.05 * 2 ** (attempt - 1))

    def test_later_jobs_run_inside_a_backoff_window(self, monkeypatch):
        """The serial backend, like the pool, waits out no window idle.

        A duplicate of the retried job's content key waits for it, and
        then resolves from its result.
        """
        from repro.runner import queue as queue_module

        clock = _Clock()
        monkeypatch.setattr(queue_module, "time", clock)
        ran = []

        def executor(spec):
            ran.append(spec.job_id)
            if ran == ["flaky"]:
                raise RuntimeError("first attempt fails")
            return spec.job_id

        events = []
        results = run_jobs(
            [
                JobSpec("flaky", "callable", "m:f", {"n": 1}, retries=1,
                        retry_backoff_s=5.0),
                JobSpec("copy", "callable", "m:f", {"n": 1}),
                JobSpec("later", "callable", "m:f", {"n": 2}),
            ],
            executor=executor,
            observers=[events.append],
            backoff_seed=1,
        )
        assert [
            (e.kind, e.job_id, e.attempt)
            for e in events if e.kind != "scheduled"
        ] == [
            ("started", "flaky", 1), ("retry", "flaky", 1),
            ("started", "later", 1), ("finished", "later", 1),
            ("started", "flaky", 2), ("finished", "flaky", 2),
            ("cached", "copy", 0),
        ]
        assert ran == ["flaky", "later", "flaky"]
        assert results["copy"].value == "flaky"
        assert len(clock.sleeps) == 1

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        from repro.runner import queue as queue_module

        recorded = []
        monkeypatch.setattr(
            queue_module.time, "sleep", recorded.append
        )
        def executor(spec):
            raise RuntimeError("nope")

        run_jobs(
            [JobSpec("j", "callable", "m:f", retries=3)],
            executor=executor,
        )
        assert [s for s in recorded if s > 0] == []


class TestTimeoutRetryPolicy:
    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_timed_out_attempt_retries_without_backoff(
        self, executor, monkeypatch
    ):
        """Both backends retry a hung attempt at once, with the same events.

        The hung attempt already waited out its deadline, so no backoff
        is drawn before its retry, however large ``retry_backoff_s``.
        """
        from repro.runner.queue import _Run

        drawn = []
        original = _Run.backoff_delay

        def recording(self, spec, attempt):
            drawn.append(attempt)
            return original(self, spec, attempt)

        monkeypatch.setattr(_Run, "backoff_delay", recording)
        events = []
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.2, retries=1,
                         retry_backoff_s=3.0)],
            executor=executor,
            observers=[events.append],
            backoff_seed=1,
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2
        assert [e.kind for e in events] == [
            "scheduled", "started", "timeout", "retry",
            "started", "timeout", "failed",
        ]
        assert drawn == []

"""Scheduler tests: ordering, retries, skip cascades, parallelism."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.jobs import JobSpec
from repro.runner.queue import (
    JobEvent,
    run_jobs,
    topological_order,
)


def callable_spec(job_id, target, after=(), retries=0, **params):
    return JobSpec(
        job_id, "callable", f"runner_workers:{target}",
        params=params, after=after, retries=retries,
    )


class TestTopologicalOrder:
    def test_stable_without_dependencies(self):
        specs = [JobSpec(f"j{i}") for i in range(5)]
        assert topological_order(specs) == specs

    def test_dependencies_come_first(self):
        specs = [
            JobSpec("c", after=("a", "b")),
            JobSpec("b", after=("a",)),
            JobSpec("a"),
        ]
        order = [s.job_id for s in topological_order(specs)]
        assert order == ["a", "b", "c"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            topological_order([JobSpec("a"), JobSpec("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job"):
            topological_order([JobSpec("a", after=("ghost",))])

    def test_cycle_rejected(self):
        specs = [
            JobSpec("a", after=("b",)),
            JobSpec("b", after=("a",)),
        ]
        with pytest.raises(ConfigurationError, match="cycle"):
            topological_order(specs)


class TestSerialExecution:
    def test_values_and_statuses(self):
        specs = [
            callable_spec("sum", "add", a=2, b=3),
            callable_spec("echo", "identity", value="hi"),
        ]
        results = run_jobs(specs)
        assert results["sum"].value == 5
        assert results["echo"].value == "hi"
        assert all(r.status == "ok" for r in results.values())
        assert all(r.worker_pid == os.getpid() for r in results.values())

    def test_custom_executor_injected(self):
        seen = []

        def executor(spec):
            seen.append(spec.job_id)
            return spec.job_id.upper()

        results = run_jobs([JobSpec("table1")], executor=executor)
        assert results["table1"].value == "TABLE1"
        assert seen == ["table1"]

    def test_retry_then_succeed(self):
        attempts = {"n": 0}

        def executor(spec):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("flaky")
            return "done"

        results = run_jobs(
            [JobSpec("j", "callable", "m:f", retries=2)], executor=executor
        )
        assert results["j"].status == "ok"
        assert results["j"].attempts == 3

    def test_failure_after_retries(self):
        def executor(spec):
            raise RuntimeError("always")

        results = run_jobs(
            [JobSpec("j", "callable", "m:f", retries=1)], executor=executor
        )
        assert results["j"].status == "failed"
        assert results["j"].attempts == 2
        assert "always" in results["j"].error

    def test_failed_dependency_skips_transitively(self):
        def executor(spec):
            if spec.job_id == "root":
                raise RuntimeError("boom")
            return 1

        specs = [
            JobSpec("root", "callable", "m:f"),
            JobSpec("mid", "callable", "m:f", after=("root",)),
            JobSpec("leaf", "callable", "m:f", after=("mid",)),
            JobSpec("free", "callable", "m:f"),
        ]
        results = run_jobs(specs, executor=executor)
        assert results["root"].status == "failed"
        assert results["mid"].status == "skipped"
        assert results["leaf"].status == "skipped"
        assert results["free"].status == "ok"

    def test_dependency_values_available_in_order(self):
        ran = []

        def executor(spec):
            ran.append(spec.job_id)
            return spec.job_id

        # Distinct params: same-key specs would dedup via the run-local
        # memo instead of executing twice.
        specs = [
            JobSpec("late", "callable", "m:f", {"x": 2},
                    after=("early",)),
            JobSpec("early", "callable", "m:f", {"x": 1}),
        ]
        run_jobs(specs, executor=executor)
        assert ran == ["early", "late"]

    def test_invalid_jobs_count(self):
        with pytest.raises(ConfigurationError):
            run_jobs([JobSpec("table1")], jobs=0)

    def test_empty_batch(self):
        assert run_jobs([]) == {}


class TestEvents:
    def test_lifecycle_sequence(self):
        events: list[JobEvent] = []

        def executor(spec):
            return 1

        run_jobs(
            [JobSpec("j", "callable", "m:f")],
            executor=executor,
            observers=[events.append],
        )
        assert [e.kind for e in events] == [
            "scheduled", "started", "finished",
        ]
        assert events[-1].total == 1
        assert events[-1].attempt == 1

    def test_retry_and_failed_events(self):
        events = []

        def executor(spec):
            raise RuntimeError("nope")

        run_jobs(
            [JobSpec("j", "callable", "m:f", retries=1)],
            executor=executor,
            observers=[events.append],
        )
        assert [e.kind for e in events] == [
            "scheduled", "started", "retry", "started", "failed",
        ]

    def test_cached_event(self):
        cache = ResultCache()
        spec = callable_spec("sum", "add", a=1, b=1)
        run_jobs([spec], cache=cache)
        events = []
        run_jobs([spec], cache=cache, observers=[events.append])
        assert [e.kind for e in events] == ["scheduled", "cached"]


def _cache_hit_between_misses(cache):
    middle = callable_spec("b", "identity", value="b")
    run_jobs([middle], cache=cache)
    return [
        callable_spec("a", "identity", value="a"),
        middle,
        callable_spec("c", "identity", value="c"),
    ]


def _failure_then_independent_then_dependent(cache):
    return [
        callable_spec("bad", "boom", retries=1),
        callable_spec("good", "identity", value="good"),
        callable_spec("child", "identity", after=("bad",), value="child"),
    ]


def _duplicate_content_key(cache):
    return [
        callable_spec("first", "square", x=3),
        callable_spec("second", "square", x=3),
        callable_spec("other", "square", x=4),
    ]


def _cached_job_mid_chain(cache):
    run_jobs([callable_spec("b", "identity", value="b")], cache=cache)
    return [
        callable_spec("a", "identity", value="a"),
        callable_spec("b", "identity", after=("a",), value="b"),
        callable_spec("c", "identity", after=("b",), value="c"),
        callable_spec("d", "identity", value="d"),
    ]


class TestSerialEventOrder:
    """A serial run's exact event stream and cache accounting.

    Each job finishes before the next job's cache hit, skip or start is
    announced, and each job is looked up in the cache at most once.
    """

    @pytest.mark.parametrize(
        "build, expected, stats",
        [
            (
                _cache_hit_between_misses,
                [
                    ("started", "a", 1), ("finished", "a", 1),
                    ("cached", "b", 0),
                    ("started", "c", 1), ("finished", "c", 1),
                ],
                {"hits": 1, "misses": 3, "puts": 3, "stale": 0, "size": 3},
            ),
            (
                _failure_then_independent_then_dependent,
                [
                    ("started", "bad", 1), ("retry", "bad", 1),
                    ("started", "bad", 2), ("failed", "bad", 2),
                    ("started", "good", 1), ("finished", "good", 1),
                    ("skipped", "child", 0),
                ],
                {"hits": 0, "misses": 2, "puts": 1, "stale": 0, "size": 1},
            ),
            (
                _duplicate_content_key,
                [
                    ("started", "first", 1), ("finished", "first", 1),
                    ("cached", "second", 0),
                    ("started", "other", 1), ("finished", "other", 1),
                ],
                {"hits": 0, "misses": 2, "puts": 2, "stale": 0, "size": 2},
            ),
            (
                _cached_job_mid_chain,
                [
                    ("started", "a", 1), ("finished", "a", 1),
                    ("started", "d", 1), ("finished", "d", 1),
                    ("cached", "b", 0),
                    ("started", "c", 1), ("finished", "c", 1),
                ],
                {"hits": 1, "misses": 4, "puts": 4, "stale": 0, "size": 4},
            ),
        ],
        ids=["hit-between-misses", "failure-independent-dependent",
             "duplicate-key", "cached-mid-chain"],
    )
    def test_event_sequence_and_cache_stats(self, build, expected, stats):
        cache = ResultCache()
        specs = build(cache)
        events = []
        run_jobs(specs, cache=cache, observers=[events.append])
        scheduled = [("scheduled", spec.job_id, 0) for spec in
                     topological_order(specs)]
        assert [(e.kind, e.job_id, e.attempt) for e in events] == (
            scheduled + expected
        )
        assert cache.stats() == stats


class TestCacheIntegration:
    def test_second_run_hits_cache(self):
        cache = ResultCache()
        spec = callable_spec("sum", "add", a=2, b=2)
        first = run_jobs([spec], cache=cache)
        assert first["sum"].status == "ok"
        second = run_jobs([spec], cache=cache)
        assert second["sum"].status == "cached"
        assert second["sum"].value == 4
        assert cache.stats()["hits"] == 1

    def test_cached_dependency_unlocks_dependents(self):
        cache = ResultCache()
        root = callable_spec("root", "add", a=1, b=1)
        run_jobs([root], cache=cache)
        results = run_jobs(
            [root, callable_spec("leaf", "identity", after=("root",),
                                 value=9)],
            cache=cache,
        )
        assert results["root"].status == "cached"
        assert results["leaf"].status == "ok"


class TestParallelExecution:
    def test_results_match_serial(self):
        specs = [
            callable_spec(f"sq{i}", "square", x=i) for i in range(6)
        ]
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=3)
        assert {k: r.value for k, r in serial.items()} == {
            k: r.value for k, r in parallel.items()
        }

    def test_experiment_jobs_in_workers(self):
        specs = [JobSpec("table1"), JobSpec("breakeven")]
        results = run_jobs(specs, jobs=2)
        assert results["table1"].value.headline["transfer_rate_mbps"] == (
            pytest.approx(102.4)
        )
        assert results["breakeven"].status == "ok"

    def test_dependencies_respected(self):
        specs = [
            callable_spec("a", "add", a=1, b=2),
            callable_spec("b", "identity", after=("a",), value="b"),
            callable_spec("c", "identity", after=("b",), value="c"),
        ]
        results = run_jobs(specs, jobs=2)
        assert all(r.status == "ok" for r in results.values())

    def test_parallel_retry_then_succeed(self, tmp_path):
        marker = str(tmp_path / "marker")
        spec = callable_spec("flaky", "flaky", retries=2, marker=marker)
        results = run_jobs([spec], jobs=2)
        assert results["flaky"].status == "ok"
        assert results["flaky"].value == 42
        assert results["flaky"].attempts >= 2

    def test_parallel_failure_and_skip(self):
        specs = [
            callable_spec("bad", "boom"),
            callable_spec("child", "identity", after=("bad",), value=1),
            callable_spec("good", "add", a=1, b=1),
        ]
        results = run_jobs(specs, jobs=2)
        assert results["bad"].status == "failed"
        assert "boom" in results["bad"].error
        assert results["child"].status == "skipped"
        assert results["good"].status == "ok"

    def test_parallel_cache_hits(self, tmp_path):
        cache = ResultCache()
        specs = [callable_spec(f"sq{i}", "square", x=i) for i in range(4)]
        run_jobs(specs, jobs=2, cache=cache)
        rerun = run_jobs(specs, jobs=2, cache=cache)
        assert all(r.status == "cached" for r in rerun.values())

    def test_same_key_duplicates_deterministic(self):
        # Two specs computing the same thing: serial and parallel must
        # agree that the first executes and the second is cached.
        def specs():
            return [
                callable_spec("first", "square", x=3),
                callable_spec("second", "square", x=3),
            ]

        for jobs in (1, 2):
            results = run_jobs(specs(), jobs=jobs)
            assert results["first"].status == "ok", jobs
            assert results["second"].status == "cached", jobs
            assert results["second"].value == 9

    def test_hard_worker_crash_fails_job_not_run(self):
        # os._exit in a worker breaks the pool; the engine must absorb
        # it, isolate the culprit, and still complete innocent jobs —
        # even innocents with no retry budget of their own.
        specs = [
            callable_spec("killer", "die"),
            callable_spec("innocent", "slow_identity",
                          value="ok", delay_s=0.05),
            JobSpec("table1"),
        ]
        results = run_jobs(specs, jobs=2)
        assert results["killer"].status == "failed"
        assert "worker process died" in results["killer"].error
        assert results["innocent"].status == "ok"
        assert results["innocent"].value == "ok"
        assert results["table1"].status == "ok"

"""Telemetry through the runner: parity, aggregation, export.

The acceptance-shaped checks: serial and parallel runs emit the same
terminal events, telemetry never changes results, worker metrics and
spans aggregate into the parent, and a captured run exports a valid
Chrome trace with job spans on worker-pid lanes.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.runner.events import TERMINAL_EVENTS
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs
from repro.runner.campaign import run_campaign
from repro.runner.sharding import (
    collect_arrays,
    run_sharded_sweep,
    sharded_sweep_campaign,
)
from repro.telemetry import (
    TELEMETRY_ENV_VAR,
    RunCapture,
    load_trace,
    metrics,
    read_sidecar,
    recorder,
    reset_telemetry,
    validate_trace,
)

TARGET = "repro.core.batch:break_even_curve"
GRID = [32e3, 64e3, 128e3, 256e3, 512e3, 1024e3]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


def callable_spec(job_id, target, after=(), retries=0, **params):
    return JobSpec(
        job_id, "callable", f"runner_workers:{target}",
        params=params, after=after, retries=retries,
    )


def sweep(store, jobs, backend=None):
    return run_sharded_sweep(
        "sweep", TARGET, "rate_bps", GRID,
        store_path=str(store), shards=3, jobs=jobs, strict=True,
        store_backend=backend,
    )


class TestSerialParallelParity:
    def test_terminal_event_multisets_match(self):
        specs = [
            callable_spec(f"j{i}", "square", x=i) for i in range(6)
        ] + [callable_spec("last", "add", after=("j0",), a=1, b=2)]

        def terminal_counter(jobs):
            seen: list = []
            run_jobs(specs, jobs=jobs, observers=[seen.append])
            return Counter(
                (event.kind, event.job_id)
                for event in seen
                if event.kind in TERMINAL_EVENTS
            )

        assert terminal_counter(1) == terminal_counter(4)


class TestResultsUnchangedByTelemetry:
    def test_sweep_results_bit_identical_on_vs_off(
        self, tmp_path, monkeypatch
    ):
        def run(store, env):
            if env is None:
                monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(TELEMETRY_ENV_VAR, env)
            campaign = sharded_sweep_campaign(
                "sweep", TARGET, "rate_bps", GRID,
                store_path=str(store), shards=3,
            )
            result = run_campaign(
                campaign, jobs=2, store_path=str(store),
                cache_preload="specs", strict=True,
            )
            assert result.ok
            columns = collect_arrays(str(store), campaign)
            return [
                (name, column.dtype.str, column.tobytes())
                for name, column in [
                    ("", columns.values), *columns.columns.items()
                ]
            ]

        points_on = run(tmp_path / "on.sqlite", None)
        points_off = run(tmp_path / "off.sqlite", "off")
        assert points_on == points_off

    def test_disabled_telemetry_records_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "off")
        assert sweep(tmp_path / "s.jsonl", jobs=1).ok
        snapshot = metrics().snapshot()
        assert snapshot["counters"] == {}
        assert recorder().spans == []


class TestCrossWorkerAggregation:
    def test_parallel_sweep_merges_worker_metrics(self, tmp_path):
        # Pinned: REPRO_STORE_BACKEND=jsonl outranks the file extension.
        assert sweep(tmp_path / "s.sqlite", jobs=2, backend="sqlite").ok
        registry = metrics()
        # Worker pids were collected from piggybacked deltas.
        assert registry.workers
        assert os.getpid() not in registry.workers
        # Work done inside workers is visible in the parent registry.
        assert registry.counter_value("codec.pack.calls") >= 3
        assert registry.counter_value("store.sqlite.append") > 0
        assert registry.counter_value("cache.miss") >= 4
        assert registry.counter_value("cache.put") >= 4

    def test_worker_spans_absorb_into_the_parent(self, tmp_path):
        assert sweep(tmp_path / "s.sqlite", jobs=2).ok
        rec = recorder()
        assert rec.started == rec.closed == len(rec.spans)
        by_name = Counter(s["name"] for s in rec.spans)
        assert by_name["job.execute"] == 4  # 3 shards + merge
        assert by_name["shard.evaluate"] == 3
        assert by_name["merge"] == 1
        # Shard evaluates ran in pool workers, not the parent.
        shard_pids = {
            s["pid"] for s in rec.spans if s["name"] == "shard.evaluate"
        }
        assert os.getpid() not in shard_pids

    def test_serial_run_records_directly_without_workers(self, tmp_path):
        assert sweep(tmp_path / "s.jsonl", jobs=1).ok
        registry = metrics()
        assert registry.workers == set()
        assert registry.counter_value("codec.pack.calls") >= 3
        spans = {s["pid"] for s in recorder().spans}
        assert spans == {os.getpid()}


class TestRunCaptureExport:
    def test_capture_exports_valid_trace_and_sidecar(self, tmp_path):
        capture = RunCapture()
        result = run_sharded_sweep(
            "sweep", TARGET, "rate_bps", GRID,
            store_path=str(tmp_path / "s.sqlite"), shards=3, jobs=2,
            strict=True, observers=[capture], run_id=capture.run_id,
        )
        assert result.ok
        trace = str(tmp_path / "out.trace.json")
        sidecar = str(tmp_path / "out.telemetry.jsonl")
        written = capture.export(trace=trace, sidecar=sidecar)
        assert written == {"trace": trace, "sidecar": sidecar}

        events = validate_trace(load_trace(trace))
        job_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and e["name"] == "job.execute"
        }
        # Job spans land on worker-pid lanes, not the parent's.
        assert job_tids
        assert os.getpid() not in job_tids

        data = read_sidecar(sidecar)
        assert data["meta"]["run_id"] == capture.run_id
        assert data["meta"]["parent_pid"] == os.getpid()
        kinds = Counter(e["kind"] for e in data["events"])
        assert kinds["scheduled"] == 4
        assert kinds["finished"] == 4
        assert data["metrics"]["counters"]["codec.pack.calls"] >= 3
        assert data["metrics"]["workers"]

    def test_capture_stamps_run_id_onto_every_event(self, tmp_path):
        capture = RunCapture(run_id="my-run")
        result = sweep_with_capture(tmp_path, capture)
        assert result.ok
        assert capture.events
        assert {e["run_id"] for e in capture.events} == {"my-run"}
        seqs = [e["seq"] for e in capture.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


def sweep_with_capture(tmp_path, capture):
    return run_sharded_sweep(
        "sweep", TARGET, "rate_bps", GRID,
        store_path=str(tmp_path / "s.jsonl"), shards=3, jobs=1,
        strict=True, observers=[capture], run_id=capture.run_id,
    )

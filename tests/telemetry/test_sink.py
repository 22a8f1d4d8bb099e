"""Sidecar round-trip, schema guards, and the summary rollup."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    SIDECAR_SCHEMA,
    read_sidecar,
    summarize,
    write_sidecar,
)

EVENTS = [
    {"kind": "scheduled", "job_id": "j1", "seq": 1},
    {"kind": "finished", "job_id": "j1", "seq": 2, "duration_s": 0.25},
]

SPANS = [
    {"name": "job.execute", "cat": "queue", "ts": 1.0, "dur": 0.25,
     "pid": 42, "args": {}},
]

SNAPSHOT = {
    "counters": {"cache.hit": 3.0, "codec.pack.calls": 2.0},
    "gauges": {"queue.active": 4.0},
    "histograms": {
        "store.sqlite.append_s": {
            "count": 2, "total": 0.5, "min": 0.1, "max": 0.4,
        },
    },
    "workers": [101, 102],
}


def write_sample(path) -> str:
    sidecar = str(path / "run.telemetry.jsonl")
    write_sidecar(
        sidecar,
        run_id="r1",
        events=EVENTS,
        spans=SPANS,
        metrics_snapshot=SNAPSHOT,
        meta={"parent_pid": 42, "command": "sweep"},
    )
    return sidecar


class TestRoundTrip:
    def test_everything_survives_the_round_trip(self, tmp_path):
        data = read_sidecar(write_sample(tmp_path))
        assert data["meta"]["run_id"] == "r1"
        assert data["meta"]["schema"] == SIDECAR_SCHEMA
        assert data["meta"]["parent_pid"] == 42
        assert data["events"] == EVENTS
        assert data["spans"] == SPANS
        assert data["metrics"] == SNAPSHOT

    def test_line_count_matches_contents(self, tmp_path):
        sidecar = str(tmp_path / "run.telemetry.jsonl")
        lines = write_sidecar(
            sidecar, run_id="r1", events=EVENTS, spans=SPANS,
            metrics_snapshot=SNAPSHOT,
        )
        with open(sidecar, encoding="utf-8") as handle:
            assert lines == sum(1 for _ in handle)

    def test_unknown_tags_are_skipped(self, tmp_path):
        sidecar = write_sample(tmp_path)
        with open(sidecar, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": "wat", "x": 1}) + "\n")
        data = read_sidecar(sidecar)
        assert len(data["events"]) == len(EVENTS)
        assert len(data["spans"]) == len(SPANS)


class TestSchemaGuards:
    def test_missing_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"t": "event", "kind": "x"}) + "\n")
        with pytest.raises(ValueError, match="meta header"):
            read_sidecar(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = str(tmp_path / "future.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"t": "meta", "schema": "repro.telemetry/99"})
                + "\n"
            )
        with pytest.raises(ValueError, match="unsupported"):
            read_sidecar(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty sidecar"):
            read_sidecar(path)


class TestSummarize:
    def test_rollup_names_the_run_workers_and_metrics(self, tmp_path):
        text = summarize(read_sidecar(write_sample(tmp_path)))
        assert "run r1" in text
        assert "workers: 2 (pids 101, 102)" in text
        assert "1 finished" in text
        assert "job.execute: 1 x" in text
        assert "cache.hit: 3" in text
        assert "queue.active: 4" in text
        assert "store.sqlite.append_s: 2 x" in text

    def test_empty_run_says_so(self):
        text = summarize({"meta": {"run_id": "r2"}, "events": [],
                          "spans": [], "metrics": {}})
        assert "no telemetry recorded" in text

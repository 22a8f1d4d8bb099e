"""Integration tests for the campaign service (REST + WebSocket).

Every test talks to a real :class:`CampaignServer` over real sockets;
runs execute on the actual scheduler against a store under ``tmp_path``.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.runner.events import event_from_json
from repro.runner.store import ResultStore
from repro.service import (
    CampaignServer,
    ServiceClient,
    ServiceError,
    build_campaign,
)
from repro.service.server import (
    RUN_SCHEMA,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_INTERRUPTED,
    TERMINAL_STATES,
    run_key,
)

def sweep_spec(name="sweep", num=60, shards=4, **extra):
    """A small deterministic sweep spec against the batch test worker."""
    spec = {
        "kind": "sweep",
        "name": name,
        "target": "runner_workers:array_curve",
        "parameter": "values",
        "values": {
            "kind": "linspace",
            "start": 1.0,
            "stop": float(num),
            "num": num,
        },
        "shards": shards,
    }
    spec.update(extra)
    return spec


def slow_spec(name="slow", count=8, delay_s=0.2, **extra):
    """A deliberately slow non-batch sweep (one job per value)."""
    spec = {
        "kind": "sweep",
        "name": name,
        "target": "runner_workers:slow_identity",
        "parameter": "value",
        "values": [float(v) for v in range(count)],
        "shards": count,
        "batch": False,
        "common": {"delay_s": delay_s},
    }
    spec.update(extra)
    return spec


def wait_terminal(client, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(run_id)
        if status["state"] in TERMINAL_STATES:
            return status
        time.sleep(0.05)
    raise AssertionError(f"run {run_id} still {status['state']!r}")


def sidecar_lines(server, run_id):
    path = os.path.join(server.runs_dir, f"{run_id}.jsonl")
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle if line.strip()]


def seqs(lines):
    return [event_from_json(line).seq for line in lines]


class TestStreaming:
    def test_stream_matches_sidecar_bit_exactly(self, server, client):
        run_id = client.submit(sweep_spec(num=40, shards=4))
        lines = list(client.watch_lines(run_id))
        assert wait_terminal(client, run_id)["state"] == STATE_DONE
        assert lines == sidecar_lines(server, run_id)
        # seq-gap-free from the very first event
        assert seqs(lines) == list(range(1, len(lines) + 1))

    def test_two_concurrent_clients_get_identical_full_streams(
        self, server, client
    ):
        run_id = client.submit(sweep_spec(name="dual", num=40, shards=4))
        transcripts = [[], []]
        errors = []

        def consume(slot):
            try:
                watcher = ServiceClient(server.url)
                transcripts[slot] = list(watcher.watch_lines(run_id))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=consume, args=(slot,))
            for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert wait_terminal(client, run_id)["state"] == STATE_DONE
        expected = sidecar_lines(server, run_id)
        assert transcripts[0] == expected
        assert transcripts[1] == expected
        assert seqs(expected) == list(range(1, len(expected) + 1))

    def test_after_seq_resumes_mid_run_without_gap_or_overlap(
        self, server, client
    ):
        run_id = client.submit(slow_spec(count=8, delay_s=0.15))
        head = []
        for line in client.watch_lines(run_id):
            head.append(line)
            if len(head) == 5:
                break  # drop the connection mid-run
        resume_after = event_from_json(head[-1]).seq
        tail = list(client.watch_lines(run_id, after_seq=resume_after))
        assert wait_terminal(client, run_id)["state"] == STATE_DONE
        assert head + tail == sidecar_lines(server, run_id)

    def test_watch_events_decode_and_count_jobs(self, client):
        run_id = client.submit(sweep_spec(name="decoded", num=20, shards=2))
        events = list(client.watch(run_id))
        assert wait_terminal(client, run_id)["state"] == STATE_DONE
        assert all(event.run_id == run_id for event in events)
        finished = [e for e in events if e.kind == "finished"]
        # 2 shard jobs + 1 merge job
        assert len(finished) == 3
        assert finished[-1].done == finished[-1].total == 3

    def test_finished_run_replays_whole_stream(self, server, client):
        run_id = client.submit(sweep_spec(name="replay", num=20, shards=2))
        wait_terminal(client, run_id)
        lines = list(client.watch_lines(run_id))
        assert lines == sidecar_lines(server, run_id)
        # and after_seq filtering applies to the replay too
        tail = list(client.watch_lines(run_id, after_seq=seqs(lines)[2]))
        assert tail == lines[3:]

    def test_slow_client_drops_events_but_keeps_order(self, store_path):
        with CampaignServer(store_path, queue_size=4) as server:
            client = ServiceClient(server.url)
            run_id = client.submit(
                sweep_spec(name="slowpoke", num=60, shards=12)
            )
            lines = list(
                client.watch_lines(run_id, throttle_s=0.05)
            )
            wait_terminal(client, run_id)
            full = sidecar_lines(server, run_id)
            received = seqs(lines)
            dropped = server.hub.dropped_total()
            assert dropped > 0
            assert len(lines) < len(full)
            # every event was either delivered or counted as dropped
            assert len(lines) + dropped == len(full)
            # whatever arrived is a strictly increasing sub-stream
            assert received == sorted(set(received))
            assert set(lines) <= set(full)
            assert client.health()["hub"]["dropped"] == dropped


class TestLifecycle:
    def test_submit_lists_and_reports_status(self, client):
        run_id = client.submit(sweep_spec(name="listed", num=20, shards=2))
        status = wait_terminal(client, run_id)
        assert status["state"] == STATE_DONE
        assert status["error"] is None
        assert status["counts"] == {"ok": 3}
        assert status["spec"]["name"] == "listed"
        listed = {run["run_id"]: run for run in client.runs()}
        assert listed[run_id]["state"] == STATE_DONE

    def test_cancel_mid_sweep_skips_remaining_jobs(self, client):
        run_id = client.submit(slow_spec(name="cancelme", count=8, delay_s=0.3))
        # wait for the run to actually start before cancelling
        watcher = client.watch_lines(run_id)
        next(watcher)
        watcher.close()
        reply = client.cancel(run_id)
        assert reply["cancelling"] is True
        status = wait_terminal(client, run_id)
        assert status["state"] == STATE_CANCELLED
        assert status["counts"].get("skipped", 0) > 0
        # cancelling a finished run is a calm 200
        assert client.cancel(run_id)["state"] == STATE_CANCELLED

    def test_campaign_kind_spec_runs_explicit_jobs(self, client):
        run_id = client.submit(
            {
                "kind": "campaign",
                "name": "explicit",
                "specs": [
                    {
                        "kind": "call",
                        "job_id": "sum",
                        "target": "runner_workers:add",
                        "params": {"a": 2, "b": 3},
                    },
                    {
                        "kind": "call",
                        "job_id": "echo",
                        "target": "runner_workers:identity",
                        "after": ["sum"],
                        "params": {"value": 7},
                    },
                ],
            }
        )
        status = wait_terminal(client, run_id)
        assert status["state"] == STATE_DONE
        assert status["counts"] == {"ok": 2}
        # campaign runs stream events but have no point series
        assert list(client.watch(run_id))
        with pytest.raises(ServiceError) as excinfo:
            client.points(run_id)
        assert excinfo.value.status == 400

    def test_healthz_reports_liveness(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["live_runs"] == 0
        assert set(health["hub"]) == {"clients", "dropped", "channels"}


class TestPointsPaging:
    def test_pages_cover_the_whole_grid_in_order(self, client):
        num = 50
        run_id = client.submit(sweep_spec(name="paged", num=num, shards=4))
        wait_terminal(client, run_id)
        values, doubles = [], []
        offset = 0
        while True:
            page = client.points(run_id, offset=offset, limit=16)
            assert page["run_id"] == run_id
            assert page["offset"] == offset
            assert page["count"] == len(page["values"])
            values += page["values"]
            doubles += page["columns"].get("double", [])
            offset += page["count"]
            if page["done"] or page["count"] == 0:
                break
        grid = [1.0 + i * (num - 1.0) / (num - 1) for i in range(num)]
        assert values == pytest.approx(grid)
        assert doubles == pytest.approx([v * 2 for v in values])

    def test_points_validates_query(self, client):
        run_id = client.submit(sweep_spec(name="qcheck", num=10, shards=2))
        wait_terminal(client, run_id)
        for query in ("offset=-1", "limit=0", "offset=nan"):
            with pytest.raises(ServiceError) as excinfo:
                client._request(
                    "GET", f"/campaigns/{run_id}/points?{query}"
                )
            assert excinfo.value.status == 400
        tail = client.points(run_id, offset=9_999)
        assert tail["count"] == 0
        assert tail["done"] is True


class TestRestart:
    def test_restart_relists_replays_and_pages_from_store(self, store_path):
        with CampaignServer(store_path) as first:
            client = ServiceClient(first.url)
            run_id = client.submit(sweep_spec(name="durable", num=30, shards=3))
            wait_terminal(client, run_id)
            expected = sidecar_lines(first, run_id)
            runs_dir = first.runs_dir
        with CampaignServer(store_path, runs_dir=runs_dir) as second:
            client = ServiceClient(second.url)
            listed = {run["run_id"]: run for run in client.runs()}
            assert listed[run_id]["state"] == STATE_DONE
            assert client.status(run_id)["state"] == STATE_DONE
            # the WS stream replays from the sidecar, bit-exactly
            assert list(client.watch_lines(run_id)) == expected
            # and points page from the campaign rebuilt off the spec
            page = client.points(run_id, limit=100)
            assert page["count"] == 30
            assert page["done"] is True

    def test_run_interrupted_by_a_dead_server_is_reported(self, store_path):
        # Simulate a server that died mid-run: a non-terminal stored
        # record with no live run behind it.
        campaign = build_campaign(sweep_spec(name="ghost"), store_path)
        assert campaign.specs  # the spec itself is valid
        store = ResultStore(store_path)
        try:
            store.append(
                {
                    "key": run_key("20260101T000000-dead0000"),
                    "job_id": "service/20260101T000000-dead0000",
                    "status": "ok",
                    "value": {
                        "schema": RUN_SCHEMA,
                        "run_id": "20260101T000000-dead0000",
                        "state": "running",
                        "spec": sweep_spec(name="ghost"),
                    },
                }
            )
        finally:
            store.close()
        with CampaignServer(store_path) as server:
            client = ServiceClient(server.url)
            listed = {run["run_id"]: run for run in client.runs()}
            assert (
                listed["20260101T000000-dead0000"]["state"]
                == STATE_INTERRUPTED
            )


class TestRouting:
    def test_unknown_routes_and_methods(self, client):
        cases = [
            ("GET", "/nope", 404),
            ("PUT", "/campaigns", 405),
            ("POST", "/campaigns/some-run", 405),
            ("POST", "/campaigns/some-run/points", 405),
            ("GET", "/campaigns/missing-run", 404),
            ("DELETE", "/campaigns/missing-run", 404),
            ("GET", "/campaigns/missing-run/points", 404),
            # events without a WebSocket upgrade
            ("GET", "/campaigns/missing-run/events", 426),
        ]
        for method, path, status in cases:
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path)
            assert excinfo.value.status == status, (method, path)

    def test_bad_specs_fail_the_post_not_the_run(self, client):
        bad = [
            {"kind": "sweep", "name": "x"},  # missing target/parameter
            {"kind": "sweep", "target": "t", "parameter": "p", "values": []},
            {"kind": "campaign", "name": "x", "specs": []},
            {"kind": "teapot", "name": "x"},
            [1, 2, 3],
            sweep_spec(executor="bogus"),
            sweep_spec(executor="fleet"),
            sweep_spec(jobs="many"),
            sweep_spec(jobs=0),
        ]
        for spec in bad:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/campaigns", body=spec)
            assert excinfo.value.status == 400, spec
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/campaigns", body=None)
        assert excinfo.value.status == 400
        assert client.runs() == []  # nothing was ever admitted

    def test_ws_watch_of_unknown_run_raises_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            list(client.watch_lines("never-submitted"))
        assert excinfo.value.status == 404

    def test_malformed_http_gets_400(self, server):
        import socket

        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed" in reply

    def test_response_bodies_are_canonical_json(self, client):
        raw = client._request("GET", "/healthz")
        assert json.loads(json.dumps(raw, sort_keys=True)) == raw

"""Memory-bounded streaming paths: merge chunks, lazy reads, resume.

The PR contract under test: the sweep -> merge -> cache pipeline never
materialises a full grid — shard payloads decode one at a time, point
records flush through bounded ``append_many`` chunks, the latest-per-key
view streams off both backends, and an interrupted (even *crashed*)
merge resumes from per-shard cache without recomputing shards.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runner import (
    Campaign,
    ResultStore,
    collect_points,
    iter_points,
    run_campaign,
    sharded_sweep_campaign,
)
from repro.runner.backends import JsonlBackend, SqliteBackend
from repro.runner.sharding import merge_shards, point_key

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
TARGET = "repro.core.batch:break_even_curve"


def _campaign(store_path, **kwargs):
    return sharded_sweep_campaign(
        "sweep",
        TARGET,
        "rate_bps",
        GRID,
        store_path=str(store_path),
        shards=4,
        **kwargs,
    )


def _run_shards_only(store_path, **kwargs):
    """Complete every shard job but not the merge (the usual interrupt)."""
    full = _campaign(store_path, **kwargs)
    shards_only = Campaign("shards-only", specs=list(full.specs[:-1]))
    result = run_campaign(shards_only, store_path=str(store_path))
    assert result.ok
    return full


class TestBoundedChunks:
    def test_flush_chunk_bounds_append_batches(self, tmp_path, monkeypatch):
        """codec="json": per-point records flush in bounded batches."""
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path, codec="json")
        merge = full.specs[-1]

        batch_sizes = []
        original = ResultStore.append_many

        def recording(self, records):
            batch_sizes.append(len(records))
            return original(self, records)

        monkeypatch.setattr(ResultStore, "append_many", recording)
        summary = merge_shards(flush_chunk=7, **merge.params_dict())
        assert summary["points"] == len(GRID)
        assert summary["point_records"] == len(GRID)
        assert sum(batch_sizes) == len(GRID)
        assert max(batch_sizes) <= 7

    def test_columnar_merge_writes_nothing(self, tmp_path, monkeypatch):
        """The shard payloads are the one stored copy of the points."""
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path)
        merge = full.specs[-1]
        store = ResultStore(str(store_path))
        before = len(store)
        store.close()

        appended = []
        original = ResultStore.append_many

        def recording(self, records):
            appended.extend(records)
            return original(self, records)

        monkeypatch.setattr(ResultStore, "append_many", recording)
        summary = merge_shards(flush_chunk=7, **merge.params_dict())
        assert summary["points"] == len(GRID)
        assert summary["point_records"] == 0
        assert appended == []
        store = ResultStore(str(store_path))
        assert len(store) == before
        store.close()

    def test_flush_chunk_rejects_nonpositive(self, tmp_path):
        full = _run_shards_only(tmp_path / "s.sqlite")
        with pytest.raises(ConfigurationError):
            merge_shards(flush_chunk=0, **full.specs[-1].params_dict())

    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_bad_flush_chunk_env_fails_when_the_sweep_is_built(
        self, tmp_path, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_MERGE_FLUSH_CHUNK", raw)
        with pytest.raises(
            ConfigurationError, match="REPRO_MERGE_FLUSH_CHUNK"
        ):
            _campaign(tmp_path / "s.sqlite")

    def test_flush_chunk_env_sets_the_merge_block_size(
        self, tmp_path, monkeypatch
    ):
        """The variable sizes the json merge's point-record batches."""
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path, codec="json")
        batch_sizes = []
        original = ResultStore.append_many

        def recording(self, records):
            batch_sizes.append(len(records))
            return original(self, records)

        monkeypatch.setattr(ResultStore, "append_many", recording)
        monkeypatch.setenv("REPRO_MERGE_FLUSH_CHUNK", "16")
        summary = merge_shards(**full.specs[-1].params_dict())
        assert summary["points"] == len(GRID)
        assert batch_sizes == [16, 16, 8]

    def test_streaming_summary_matches_points(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path)
        summary = merge_shards(**full.specs[-1].params_dict())
        _, points = collect_points(str(store_path), full)
        series = [p["break_even_bits"] for p in points]
        stats = summary["metrics"]["break_even_bits"]
        assert stats["finite"] == len(series)
        assert stats["min"] == min(series)
        assert stats["max"] == max(series)


class TestCrashMidMerge:
    def test_crashed_merge_resumes_from_shard_cache(
        self, tmp_path, monkeypatch
    ):
        """A merge killed mid-flush re-runs without recomputing shards."""
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path, codec="json")
        merge = full.specs[-1]

        # Simulated crash: the store dies after the first point flush.
        flushes = {"count": 0}
        original = ResultStore.append_many

        def dying(self, records):
            if flushes["count"] >= 1:
                raise OSError("simulated crash mid-merge")
            flushes["count"] += 1
            return original(self, records)

        monkeypatch.setattr(ResultStore, "append_many", dying)
        with pytest.raises(OSError):
            merge_shards(flush_chunk=10, **merge.params_dict())
        monkeypatch.setattr(ResultStore, "append_many", original)

        # The store now holds a partial point-record prefix...
        store = ResultStore(str(store_path))
        partial = sum(
            1
            for record in store.iter_records()
            if record.get("job_id", "").startswith("sweep[")
        )
        store.close()
        assert 0 < partial < len(GRID)

        # ...and the campaign re-run resolves every shard from cache,
        # re-running only the merge; duplicated point records are
        # harmless under latest-wins semantics.
        resumed = run_campaign(full, store_path=str(store_path))
        assert resumed.status_counts() == {"cached": 4, "ok": 1}
        assert resumed.results["sweep/merge"].value["points"] == len(GRID)
        store = ResultStore(str(store_path))
        for value in (GRID[0], GRID[17], GRID[-1]):
            record = store.get(point_key(TARGET, "rate_bps", value))
            assert record is not None
            assert record["value"]["break_even_bits"] > 0
        store.close()


class TestIterPoints:
    def test_streams_grid_order(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path)
        merge_shards(**full.specs[-1].params_dict())
        streamed = list(iter_points(str(store_path), full))
        values, points = collect_points(str(store_path), full)
        assert streamed == list(zip(values, points))
        assert [v for v, _ in streamed] == GRID


class TestIterLatestByKey:
    def _fill(self, backend):
        backend.append({"key": "a", "status": "ok", "value": 1})
        backend.append({"key": "b", "status": "failed", "value": 2})
        backend.append({"key": "a", "status": "ok", "value": 3})
        backend.append({"key": "b", "status": "ok", "value": 4})
        backend.append({"key": "c", "status": "failed", "value": 5})

    @pytest.mark.parametrize("factory", [JsonlBackend, SqliteBackend])
    def test_latest_winners_stream_in_append_order(self, tmp_path, factory):
        backend = factory(
            tmp_path / ("r.sqlite" if factory is SqliteBackend else "r.jsonl")
        )
        try:
            assert list(backend.iter_latest_by_key()) == []
            self._fill(backend)
            winners = list(backend.iter_latest_by_key())
            assert [(r["key"], r["value"]) for r in winners] == [
                ("a", 3),
                ("b", 4),
            ]
            assert backend.latest_by_key() == {
                r["key"]: r for r in winners
            }
            everything = list(backend.iter_latest_by_key(None))
            assert [(r["key"], r["value"]) for r in everything] == [
                ("a", 3),
                ("b", 4),
                ("c", 5),
            ]
            failed = list(backend.iter_latest_by_key("failed"))
            assert [(r["key"], r["value"]) for r in failed] == [
                ("b", 2),
                ("c", 5),
            ]
        finally:
            backend.close()

    def test_jsonl_tolerates_torn_trailing_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        backend = JsonlBackend(path)
        self._fill(backend)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "a", "status": "ok", "val')  # torn
        winners = list(backend.iter_latest_by_key())
        assert [(r["key"], r["value"]) for r in winners] == [
            ("a", 3),
            ("b", 4),
        ]

    def test_jsonl_rejects_binary_store_loudly(self, tmp_path):
        """A non-JSONL file must fail like iter_records, not read empty.

        Forcing the JSONL backend onto a SQLite store (or any binary
        file) has to raise — a silent empty latest-per-key view would
        make the cache treat the store as fresh and append JSON lines
        into it.
        """
        path = tmp_path / "r.sqlite"
        sqlite = SqliteBackend(path)
        sqlite.append({"key": "a", "status": "ok", "value": 1})
        sqlite.close()
        backend = JsonlBackend(path)
        with pytest.raises(ConfigurationError):
            list(backend.iter_latest_by_key())
        with pytest.raises(ConfigurationError):
            backend.latest_by_key()

    def test_jsonl_skips_superseded_payloads(self, tmp_path):
        """Only winning lines are decoded on the second pass."""
        path = tmp_path / "r.jsonl"
        backend = JsonlBackend(path)
        for index in range(20):
            backend.append(
                {"key": "hot", "status": "ok", "value": index}
            )
        winners = list(backend.iter_latest_by_key())
        assert [(r["key"], r["value"]) for r in winners] == [("hot", 19)]
        offsets = backend._iter_winning_offsets("ok")
        assert len(offsets) == 1
        with open(path, "rb") as handle:
            handle.seek(offsets[0])
            assert json.loads(handle.readline())["value"] == 19

    @staticmethod
    def _key_filter_restricts_winners(factory, history, keys, status, torn):
        """Filtered winners are the unfiltered ones restricted to keys.

        ``torn`` damages the store the way each backend meets damage: a
        torn trailing JSONL line, or a SQLite winner whose checksum no
        longer matches its text.
        """
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r")
            backend = factory(path)
            try:
                backend.append_many(
                    [
                        {"key": key, "status": outcome, "value": index}
                        for index, (key, outcome) in enumerate(history)
                    ]
                )
                if torn and factory is JsonlBackend:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write('{"key": "a", "status": "ok", "val')
                elif torn:
                    with backend._connect() as conn:
                        conn.execute(
                            "UPDATE records SET record = record || ' '"
                            " WHERE id = (SELECT MAX(id) FROM records)"
                        )
                everything = list(backend.iter_latest_by_key(status))
                filtered = list(
                    backend.iter_latest_by_key(status, keys=keys)
                )
            finally:
                backend.close()
        assert filtered == [r for r in everything if r["key"] in keys]

    _histories = dict(
        history=st.lists(
            st.tuples(
                st.sampled_from("abcde"), st.sampled_from(["ok", "failed"])
            ),
            max_size=25,
        ),
        keys=st.sets(st.sampled_from("abcdef")),
        status=st.sampled_from(["ok", None, "failed"]),
        torn=st.booleans(),
    )

    @given(**_histories)
    @settings(max_examples=60, deadline=None)
    def test_jsonl_key_filter_restricts_winners(
        self, history, keys, status, torn
    ):
        self._key_filter_restricts_winners(
            JsonlBackend, history, keys, status, torn
        )

    @given(**_histories)
    @settings(max_examples=60, deadline=None)
    def test_sqlite_key_filter_restricts_winners(
        self, history, keys, status, torn
    ):
        self._key_filter_restricts_winners(
            SqliteBackend, history, keys, status, torn
        )

    def test_store_key_filter_on_sqlite(self, tmp_path):
        """The store-level key filter answers on SQLite, winners in
        append order, with a corrupt winner skipped."""
        store = ResultStore(tmp_path / "r.sqlite", backend="sqlite")
        try:
            self._fill(store)
            store.append({"key": "d", "status": "ok", "value": 6})
            with store.backend._connect() as conn:
                conn.execute(
                    "UPDATE records SET record = record || ' '"
                    " WHERE id = (SELECT MAX(id) FROM records)"
                )
            winners = list(store.iter_latest_by_key(keys={"b", "a", "d"}))
            assert [(r["key"], r["value"]) for r in winners] == [
                ("a", 3), ("b", 4)
            ]
            assert [
                r["value"]
                for r in store.iter_latest_by_key(None, keys=["c", "zz"])
            ] == [5]
        finally:
            store.close()

    def test_jsonl_offsets_only_for_wanted_keys(self, tmp_path):
        path = tmp_path / "r.jsonl"
        backend = JsonlBackend(path)
        self._fill(backend)
        offsets = backend._iter_winning_offsets(None, {"b", "c"})
        assert set(offsets) < set(backend._iter_winning_offsets(None))
        with open(path, "rb") as handle:
            winners = []
            for offset in offsets:
                handle.seek(offset)
                record = json.loads(handle.readline())
                winners.append((record["key"], record["value"]))
        assert winners == [("b", 4), ("c", 5)]
        assert backend._iter_winning_offsets("ok", {"zz"}) == []


class TestStreamingCompact:
    def test_jsonl_compact_streams_and_keeps_semantics(self, tmp_path):
        backend = JsonlBackend(tmp_path / "r.jsonl")
        for index in range(50):
            backend.append(
                {"key": f"k{index % 5}", "status": "ok", "value": index}
            )
        before = backend.latest_by_key(None)
        dropped = backend.compact()
        assert dropped == 45
        assert backend.latest_by_key(None) == before
        assert len(backend) == 5
        assert backend.compact() == 0

"""Memory-bounded streaming paths: the merge, lazy reads, compaction.

The contract under test: the sweep -> merge -> cache pipeline never
materialises a full grid — shard payloads decode one at a time, the
merge writes nothing, and the latest-per-key view streams off both
backends.  A crashed merge resuming from per-shard cache is
``tests/runner/test_codec.py::TestColumnarCrashResume``.
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
    collect_arrays,
    run_campaign,
    sharded_sweep_campaign,
)
from repro.runner.backends import JsonlBackend, SqliteBackend
from repro.runner.sharding import merge_shards

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
TARGET = "repro.core.batch:break_even_curve"


def _run_shards_only(store_path):
    """Complete every shard job but not the merge (the usual interrupt)."""
    full = sharded_sweep_campaign(
        "sweep",
        TARGET,
        "rate_bps",
        GRID,
        store_path=str(store_path),
        shards=4,
    )
    shards_only = Campaign("shards-only", specs=list(full.specs[:-1]))
    result = run_campaign(shards_only, store_path=str(store_path))
    assert result.ok
    return full


class TestBoundedChunks:
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
        summary = merge_shards(**merge.params_dict())
        assert summary["points"] == len(GRID)
        assert appended == []
        store = ResultStore(str(store_path))
        assert len(store) == before
        store.close()

    def test_streaming_summary_matches_points(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        full = _run_shards_only(store_path)
        summary = merge_shards(**full.specs[-1].params_dict())
        series = collect_arrays(str(store_path), full).columns[
            "break_even_bits"
        ]
        stats = summary["metrics"]["break_even_bits"]
        assert stats["finite"] == len(series)
        assert stats["min"] == series.min()
        assert stats["max"] == series.max()


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

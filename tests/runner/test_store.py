"""Result-store tests: the facade and both persistence backends.

Backend-agnostic behavior runs against ``jsonl`` and ``sqlite`` via the
``store`` fixture; format-specific behavior (torn trailing lines,
on-disk layout) pins its backend explicitly so the suite passes
unchanged under any ``REPRO_STORE_BACKEND`` CI matrix axis.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.runner.backends import (
    BACKEND_ENV_VAR,
    JsonlBackend,
    SqliteBackend,
    detect_format,
    resolve_backend_name,
)
from repro.runner.integrity import stamp_check
from repro.runner.provenance import (
    CONFIG_FIELD,
    VERSION_FIELD,
    provenance_stamp,
)
from repro.runner.store import ResultStore, migrate_store

BACKEND_NAMES = ("jsonl", "sqlite")


def record(key="k1", job_id="j1", status="ok", **extra):
    return {"key": key, "job_id": job_id, "status": status, **extra}


@pytest.fixture(params=BACKEND_NAMES)
def store(request, tmp_path):
    """A fresh store of each backend, closed after the test."""
    instance = ResultStore(
        tmp_path / f"r.{request.param}", backend=request.param
    )
    yield instance
    instance.close()


class TestAppendLoad:
    def test_roundtrip(self, store):
        store.append(record(value={"headline": {"x": 1.5}}))
        store.append(record(key="k2", job_id="j2"))
        loaded = store.load()
        assert len(loaded) == 2
        assert loaded[0]["value"]["headline"]["x"] == 1.5

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []

    def test_parent_directories_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "r.jsonl")
        store.append(record())
        assert len(store) == 1

    def test_record_needs_key_and_status(self, store):
        with pytest.raises(ConfigurationError):
            store.append({"job_id": "j"})

    def test_len_and_iter(self, store):
        store.append(record())
        store.append(record(key="k2"))
        assert len(store) == 2
        assert [r["key"] for r in store] == ["k1", "k2"]

    def test_append_many_matches_appends(self, store):
        store.append_many([record(), record(key="k2"), record(key="k3")])
        assert [r["key"] for r in store.load()] == ["k1", "k2", "k3"]

    def test_iter_records_streams_load(self, store):
        store.append_many([record(), record(key="k2")])
        iterator = store.iter_records()
        assert iter(iterator) is iterator  # lazy, not a list
        assert list(iterator) == store.load()

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="directory"):
            ResultStore(tmp_path)


class TestProvenanceStamping:
    def test_appends_are_stamped(self, store):
        store.append(record())
        stamp = provenance_stamp()
        loaded = store.load()[0]
        assert loaded[VERSION_FIELD] == stamp[VERSION_FIELD]
        assert loaded[CONFIG_FIELD] == stamp[CONFIG_FIELD]

    def test_existing_stamp_not_overwritten(self, store):
        store.append(record(**{VERSION_FIELD: "0.0.1"}))
        assert store.load()[0][VERSION_FIELD] == "0.0.1"


class TestBackendResolution:
    def test_extension_selects_sqlite(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        for extension in (".sqlite", ".sqlite3", ".db"):
            store = ResultStore(tmp_path / f"r{extension}")
            assert store.backend_name == "sqlite"
            store.close()
        assert ResultStore(tmp_path / "r.jsonl").backend_name == "jsonl"

    def test_env_var_selects_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        store = ResultStore(tmp_path / "r.jsonl")
        assert store.backend_name == "sqlite"
        store.close()

    def test_explicit_backend_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        store = ResultStore(tmp_path / "r.jsonl", backend="jsonl")
        assert store.backend_name == "jsonl"

    def test_existing_format_beats_env_and_extension(
        self, tmp_path, monkeypatch
    ):
        # A real sqlite store at a .jsonl path reopens as sqlite ...
        path = tmp_path / "r.jsonl"
        first = ResultStore(path, backend="sqlite")
        first.append(record())
        first.close()
        monkeypatch.setenv(BACKEND_ENV_VAR, "jsonl")
        reopened = ResultStore(path)
        assert reopened.backend_name == "sqlite"
        assert len(reopened) == 1
        reopened.close()
        # ... and a jsonl store at a .sqlite path reopens as jsonl.
        other = tmp_path / "r.sqlite"
        ResultStore(other, backend="jsonl").append(record())
        assert detect_format(os.fspath(other)) == "jsonl"
        assert ResultStore(other).backend_name == "jsonl"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown store"):
            ResultStore(tmp_path / "r.jsonl", backend="postgres")

    def test_jsonl_forced_onto_sqlite_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "r.sqlite"
        sqlite = ResultStore(path, backend="sqlite")
        sqlite.append(record())
        sqlite.close()
        forced = ResultStore(path, backend="jsonl")
        with pytest.raises(ConfigurationError, match="not a JSONL"):
            forced.load()

    def test_sqlite_forced_onto_jsonl_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "r.jsonl"
        ResultStore(path, backend="jsonl").append(record())
        forced = ResultStore(path, backend="sqlite")
        with pytest.raises(ConfigurationError, match="not a SQLite"):
            forced.load()

    def test_unknown_env_backend_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "postgres")
        with pytest.raises(ConfigurationError, match="unknown store"):
            resolve_backend_name(tmp_path / "r.jsonl")


class TestDurability:
    def test_append_fsyncs(self, tmp_path, monkeypatch):
        """Every acknowledged jsonl append reaches the disk, not a buffer."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        store = ResultStore(tmp_path / "r.jsonl", backend="jsonl")
        store.append(record())
        assert synced, "append() must fsync before returning"

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path, backend="jsonl")
        store.append(record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "status": "o')  # interrupted write
        assert [r["key"] for r in store.load()] == ["k1"]
        # The store stays appendable after the torn write is ignored.
        store.append(record(key="k3"))
        keys = [r["key"] for r in store.load()]
        assert "k3" in keys and "k2" not in keys

    def test_kill_mid_append_recovers_prefix(self, tmp_path):
        """Simulated kill: truncate the file mid-record, then recover."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path, backend="jsonl")
        store.append(record())
        store.append(record(key="k2"))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)  # tear the final record
        assert [r["key"] for r in store.load()] == ["k1"]
        store.append(record(key="k3"))
        assert [r["key"] for r in store.load()] == ["k1", "k3"]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(stamp_check(record())) + "\n\n"
            + json.dumps(stamp_check(record(key="k2"))) + "\n",
            encoding="utf-8",
        )
        assert len(ResultStore(path).load()) == 2

    def test_sqlite_survives_reopen(self, tmp_path):
        path = tmp_path / "r.sqlite"
        store = ResultStore(path, backend="sqlite")
        store.append(record(value=1))
        store.close()
        reopened = ResultStore(path)
        assert reopened.get("k1")["value"] == 1
        reopened.close()


class TestQueries:
    def test_latest_by_key_supersedes(self, store):
        store.append(record(value=1))
        store.append(record(value=2))
        assert store.get("k1")["value"] == 2

    def test_latest_by_key_filters_status(self, store):
        store.append(record(status="failed"))
        assert store.get("k1") is None
        store.append(record(status="ok"))
        assert store.get("k1")["status"] == "ok"
        assert store.latest_by_key(status=None)["k1"]["status"] == "ok"

    def test_keys(self, store):
        store.append(record())
        store.append(record(key="k2", status="failed"))
        assert store.keys() == {"k1"}


class TestCompaction:
    def test_keeps_latest_per_key(self, store):
        for value in (1, 2, 3):
            store.append(record(value=value))
        store.append(record(key="k2", value=9))
        dropped = store.compact()
        assert dropped == 2
        assert len(store) == 2
        assert store.get("k1")["value"] == 3
        assert store.get("k2")["value"] == 9

    def test_queries_unchanged_by_compaction(self, store):
        store.append(record(value=1))
        store.append(record(value=2))
        store.append(record(key="k2", status="failed"))
        store.append(record(key="k2", status="ok", value=5))
        store.append(record(key="k2", status="failed", error="later"))
        before = (
            store.get("k1"),
            store.get("k2"),
            store.keys(),
            store.latest_by_key(None),
            store.latest_by_key("ok"),
        )
        store.compact()
        after = (
            store.get("k1"),
            store.get("k2"),
            store.keys(),
            store.latest_by_key(None),
            store.latest_by_key("ok"),
        )
        assert after == before

    def test_keeps_latest_ok_beside_newer_failure(self, store):
        store.append(record(value=1))
        store.append(record(status="failed", error="flaky"))
        store.compact()
        assert store.get("k1")["value"] == 1
        assert store.latest_by_key(None)["k1"]["status"] == "failed"
        assert len(store) == 2

    def test_compact_empty_and_already_compact(self, store):
        assert store.compact() == 0
        store.append(record())
        assert store.compact() == 0
        assert len(store) == 1

    def test_compacted_store_still_serves_cache(self, tmp_path):
        from repro.runner import registry_campaign, run_campaign

        for backend in BACKEND_NAMES:
            store_path = str(tmp_path / f"c.{backend}")
            run_campaign(
                registry_campaign(["table1", "breakeven"]),
                store_path=store_path,
                store_backend=backend,
            )
            store = ResultStore(store_path, backend=backend)
            store.compact()
            store.close()
            rerun = run_campaign(
                registry_campaign(["table1", "breakeven"]),
                store_path=store_path,
                store_backend=backend,
            )
            assert rerun.status_counts() == {"cached": 2}


class TestMigration:
    def populate(self, store):
        store.append(record(value=1))
        store.append(record(value=2))
        store.append(record(key="k2", status="failed", error="boom"))
        store.append(record(key="k3", job_id="j2", value=[1, 2]))

    @pytest.mark.parametrize(
        "src_backend,dst_backend",
        [("jsonl", "sqlite"), ("sqlite", "jsonl")],
    )
    def test_roundtrip_preserves_records(
        self, tmp_path, src_backend, dst_backend
    ):
        src_path = tmp_path / "src.store"
        source = ResultStore(src_path, backend=src_backend)
        self.populate(source)
        original = source.load()
        source.close()

        dst_path = tmp_path / "dst.store"
        migrated = migrate_store(
            src_path, dst_path,
            src_backend=src_backend, dst_backend=dst_backend,
        )
        assert migrated.copied == 4
        destination = ResultStore(dst_path, backend=dst_backend)
        assert destination.load() == original
        destination.close()

        # And back again: a full round trip is the identity.
        back_path = tmp_path / "back.store"
        migrate_store(
            dst_path, back_path,
            src_backend=dst_backend, dst_backend=src_backend,
        )
        back = ResultStore(back_path, backend=src_backend)
        assert back.load() == original
        back.close()

    def test_extension_drives_conversion(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        src = tmp_path / "r.jsonl"
        source = ResultStore(src, backend="jsonl")
        self.populate(source)
        migrate_store(src, tmp_path / "r.sqlite")
        assert detect_format(os.fspath(tmp_path / "r.sqlite")) == "sqlite"

    def test_defaults_to_other_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "jsonl")  # must be ignored
        src = tmp_path / "r.jsonl"
        source = ResultStore(src, backend="jsonl")
        self.populate(source)
        migrate_store(src, tmp_path / "converted.store")
        assert detect_format(
            os.fspath(tmp_path / "converted.store")
        ) == "sqlite"

    def test_refuses_same_path_and_nonempty_destination(self, tmp_path):
        src = tmp_path / "r.jsonl"
        source = ResultStore(src, backend="jsonl")
        source.append(record())
        with pytest.raises(ConfigurationError, match="distinct"):
            migrate_store(src, src)
        dst = tmp_path / "d.sqlite"
        ResultStore(dst, backend="sqlite").append(record(key="k9"))
        with pytest.raises(ConfigurationError, match="already holds"):
            migrate_store(src, dst)

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            migrate_store(tmp_path / "absent.jsonl", tmp_path / "d.sqlite")

    def test_migration_preserves_provenance(self, tmp_path):
        src = tmp_path / "r.jsonl"
        source = ResultStore(src, backend="jsonl")
        source.backend.append(
            record(**{VERSION_FIELD: "0.0.1", CONFIG_FIELD: "old"})
        )
        migrate_store(src, tmp_path / "d.sqlite")
        migrated = ResultStore(tmp_path / "d.sqlite").load()[0]
        assert migrated[VERSION_FIELD] == "0.0.1"
        assert migrated[CONFIG_FIELD] == "old"


class TestBackendClasses:
    def test_backend_instances_exposed(self, tmp_path):
        jsonl = ResultStore(tmp_path / "r.jsonl", backend="jsonl")
        sqlite = ResultStore(tmp_path / "r.sqlite", backend="sqlite")
        assert isinstance(jsonl.backend, JsonlBackend)
        assert isinstance(sqlite.backend, SqliteBackend)
        sqlite.close()

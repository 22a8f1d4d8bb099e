"""Store integrity tests: checksums, quarantine, the verify scan."""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runner.integrity import (
    CHECK_FIELD,
    canonical_body,
    check_token,
    damage_total,
    stamp_check,
    token_ok,
    verify_jsonable,
)
from repro.runner.store import ResultStore, migrate_store
from repro.telemetry import metrics

BACKENDS = ("jsonl", "sqlite")

#: Stores older builds wrote, one per commit (see data/README.md).
DATA = pathlib.Path(__file__).parent / "data"


def record(key, job_id="job", value=1.5):
    return {"key": key, "job_id": job_id, "status": "ok", "value": value}


class TestTokens:
    def test_round_trip(self):
        data = b"some payload"
        token = check_token(data)
        assert token.startswith("crc32:")
        assert token_ok(token, data)
        assert not token_ok(token, data + b"x")

    def test_unknown_token_shapes_fail_closed(self):
        assert not token_ok(None, b"data")
        assert not token_ok(123, b"data")
        assert not token_ok("md5:abc", b"data")

    def test_stamp_then_verify(self):
        stamped = stamp_check(record("k"))
        assert CHECK_FIELD in stamped
        assert verify_jsonable(dict(stamped)) is True

    def test_verify_strips_the_check_field(self):
        stamped = stamp_check(record("k"))
        verified = dict(stamped)
        verify_jsonable(verified)
        assert CHECK_FIELD not in verified

    def test_tampered_record_fails(self):
        stamped = stamp_check(record("k"))
        stamped["value"] = 2.5
        assert verify_jsonable(stamped) is False

    def test_record_without_a_token_fails(self):
        assert verify_jsonable(record("k")) is False

    def test_canonical_body_excludes_the_token(self):
        plain = record("k")
        stamped = stamp_check(record("k"))
        assert canonical_body(stamped) == canonical_body(plain)
        assert CHECK_FIELD not in json.loads(canonical_body(stamped))


def _store(tmp_path, backend):
    suffix = "jsonl" if backend == "jsonl" else "sqlite"
    return ResultStore(str(tmp_path / f"s.{suffix}"), backend=backend)


def _corrupt_one(store, key):
    """Flip stored bytes of ``key``'s record behind the backend's back."""
    path = store.backend.path
    store.close()
    if store.backend_name == "jsonl":
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        flipped = [
            line.replace('"value":1.5', '"value":9.9')
            if f'"key":"{key}"' in line.replace(" ", "")
            or f'"{key}"' in line
            else line
            for line in lines
        ]
        assert flipped != lines
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(flipped)
    else:
        with sqlite3.connect(path) as conn:
            cursor = conn.execute(
                "UPDATE records SET record = replace(record, '1.5', '9.9') "
                "WHERE key = ?",
                (key,),
            )
            assert cursor.rowcount >= 1


def _damage_row(store, index, old, new):
    """Rewrite ``old`` to ``new`` in the value of the ``index``-th record."""
    path = store.backend.path
    store.close()
    if store.backend_name == "jsonl":
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[index] = lines[index].replace(f'"value":{old}', f'"value":{new}')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
    else:
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE records SET record = replace(record, ?, ?)"
                " WHERE id = ?",
                (f'"value":{old}', f'"value":{new}', index + 1),
            )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendIntegrity:
    def test_clean_store_verifies(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        try:
            store.append_many([record("a"), record("b", value=2.0)])
            stats = store.verify()
        finally:
            store.close()
        assert stats["records"] == 2
        assert stats["checked"] == 2
        assert damage_total(stats) == 0

    def test_corruption_quarantined_not_returned(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        store.append_many([record("good"), record("bad")])
        _corrupt_one(store, "bad")

        store = _store(tmp_path, backend)
        try:
            assert store.get("good") is not None
            # The damaged key reads as missing — recompute, not crash.
            assert store.get("bad") is None
            survivors = {r["key"] for r in store.iter_records()}
            assert survivors == {"good"}
            stats = store.verify()
        finally:
            store.close()
        assert stats["corrupt_total"] == 1
        assert damage_total(stats) == 1
        assert sum(stats["corrupt"].values()) == 1

    def test_damaged_newest_ok_serves_the_previous_one(
        self, tmp_path, backend
    ):
        store = _store(tmp_path, backend)
        store.append_many([record("k"), record("other", value=3.5)])
        store.append(record("k", value=2.5))
        _damage_row(store, 2, "2.5", "7.5")

        store = _store(tmp_path, backend)
        try:
            assert store.get("k")["value"] == 1.5
            keyed = list(store.iter_latest_by_key(keys={"k"}))
            every = list(store.iter_latest_by_key())
            stats = store.verify()
        finally:
            store.close()
        assert [(r["key"], r["value"]) for r in keyed] == [("k", 1.5)]
        # Winners stay in append order: k's intact record came first.
        assert [(r["key"], r["value"]) for r in every] == [
            ("k", 1.5),
            ("other", 3.5),
        ]
        assert damage_total(stats) == 1

    def test_checksums_never_leak_to_readers(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        try:
            store.append(record("a"))
            loaded = store.load()
        finally:
            store.close()
        assert all(CHECK_FIELD not in r for r in loaded)

    def test_recompute_after_quarantine(self, tmp_path, backend):
        store = _store(tmp_path, backend)
        store.append(record("k"))
        _corrupt_one(store, "k")
        store = _store(tmp_path, backend)
        try:
            assert store.get("k") is None
            store.append(record("k", value=1.5))
            refreshed = store.get("k")
        finally:
            store.close()
        assert refreshed is not None and refreshed["value"] == 1.5


_history = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(["ok", "ok", "failed"])),
    min_size=1,
    max_size=20,
)


class TestDamagedHistoriesAgree:
    """Both backends pick the same winners around damaged records."""

    @given(history=_history, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_backends_agree_on_damaged_histories(self, history, data):
        damaged = data.draw(
            st.sets(st.integers(0, len(history) - 1)), label="damaged"
        )
        keys = data.draw(st.sets(st.integers(0, 4)), label="keys")
        answers = {}
        with tempfile.TemporaryDirectory() as scratch:
            for backend in BACKENDS:
                store = _store(pathlib.Path(scratch), backend)
                for index, (key, status) in enumerate(history):
                    store.append({
                        "key": f"k{key}", "job_id": f"j{index}",
                        "status": status, "value": 1000 + index,
                    })
                for index in damaged:
                    _damage_row(store, index, f"{1000 + index}", "9")
                store = _store(pathlib.Path(scratch), backend)

                def ask():
                    return [
                        [
                            (r["key"], r["value"])
                            for r in store.iter_latest_by_key(
                                status, keys=wanted
                            )
                        ]
                        for status in ("ok", None)
                        for wanted in (None, [f"k{k}" for k in keys])
                    ] + [store.get(f"k{key}") for key in range(5)]

                try:
                    before = ask()
                    # Compaction keeps every answer and drops the damage.
                    dropped = store.compact()
                    assert ask() == before
                    answers[backend] = before + [dropped, store.load()]
                finally:
                    store.close()
        assert answers["jsonl"] == answers["sqlite"]


def _quarantined():
    return metrics().counter_value("store.jsonl.quarantined")


class TestKeyFilteredReads:
    """A JSONL read filtered to wanted keys still verifies what it yields."""

    def _filled(self, tmp_path):
        store = _store(tmp_path, "jsonl")
        store.append_many([record("k"), record("other", value=3.5)])
        store.append(record("k", value=2.5))
        store.close()
        return store.backend.path

    def _flip(self, path, line_index, old, new):
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert old in lines[line_index]
        lines[line_index] = lines[line_index].replace(old, new)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    def test_corrupt_latest_of_wanted_key_serves_earlier(self, tmp_path):
        path = self._filled(tmp_path)
        self._flip(path, 2, '"value":2.5', '"value":7.5')
        before = _quarantined()
        store = ResultStore(path)
        try:
            winners = list(store.iter_latest_by_key(keys={"k"}))
        finally:
            store.close()
        assert [(r["key"], r["value"]) for r in winners] == [("k", 1.5)]
        assert _quarantined() == before + 1

    def test_corrupt_unwanted_record_changes_nothing(self, tmp_path):
        path = self._filled(tmp_path)
        store = ResultStore(path)
        clean = list(store.iter_latest_by_key(keys={"k"}))
        self._flip(path, 1, '"value":3.5', '"value":7.5')
        before = _quarantined()
        try:
            assert list(store.iter_latest_by_key(keys={"k"})) == clean
        finally:
            store.close()
        assert [(r["key"], r["value"]) for r in clean] == [("k", 2.5)]
        assert _quarantined() == before


def _append_unchecked(store, rec):
    """Append ``rec`` the way repro 1.7.0 and older did: no checksum."""
    path = store.backend.path
    store.close()
    if store.backend_name == "jsonl":
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(rec) + "\n")
    else:
        with sqlite3.connect(path) as conn:
            conn.execute(
                "INSERT INTO records (key, job_id, status, record)"
                " VALUES (?, ?, ?, ?)",
                (rec["key"], rec["job_id"], rec["status"], json.dumps(rec)),
            )


#: The table repro 1.4.0 created (no ``blob``, no ``crc`` column).
_PRE_CHECKSUM_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    key       TEXT NOT NULL,
    job_id    TEXT,
    status    TEXT NOT NULL,
    stored_at REAL,
    record    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_key ON records (key, id);
CREATE INDEX IF NOT EXISTS idx_records_job ON records (job_id, id);
CREATE INDEX IF NOT EXISTS idx_records_stored_at ON records (stored_at);
"""


def _pre_checksum_sqlite(path):
    """A SQLite store as repro 1.4.0 left it: WAL mode, two records."""
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(_PRE_CHECKSUM_SCHEMA)
    with conn:
        for key in ("a", "b"):
            rec = record(key)
            conn.execute(
                "INSERT INTO records (key, job_id, status, record)"
                " VALUES (?, ?, ?, ?)",
                (key, rec["job_id"], "ok", json.dumps(rec)),
            )
    conn.close()


def _sha256(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


class TestLegacyRecords:
    def test_unchecked_lines_are_quarantined(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record("old")) + "\n")
        store = ResultStore(str(path))
        try:
            assert store.get("old") is None
            stats = store.verify()
        finally:
            store.close()
        assert stats["corrupt"] == {"other": 1}
        assert damage_total(stats) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_records_without_a_checksum_are_never_served(
        self, tmp_path, backend
    ):
        """Not by get or iter_latest_by_key, nor copied by compact or
        migrate: the intact record of the same key answers instead."""
        store = _store(tmp_path, backend)
        store.append_many([record("k"), record("other", value=3.5)])
        _append_unchecked(store, record("k", value=2.5))
        _append_unchecked(store, record("bare", value=4.5))

        store = _store(tmp_path, backend)
        try:
            assert store.get("k")["value"] == 1.5
            assert store.get("bare") is None
            winners = [
                (r["key"], r["value"]) for r in store.iter_latest_by_key()
            ]
            keyed = list(store.iter_latest_by_key(keys={"k", "bare"}))
            assert winners == [("k", 1.5), ("other", 3.5)]
            assert [(r["key"], r["value"]) for r in keyed] == [("k", 1.5)]
            report = migrate_store(store.path, tmp_path / "copy.store")
            assert store.compact() == 2
            assert [r["value"] for r in store.load()] == [1.5, 3.5]
            stats = store.verify()
        finally:
            store.close()
        assert report.copied == 2 and report.unverified == {"other": 2}
        assert stats["records"] == stats["checked"] == 2
        copy = ResultStore(tmp_path / "copy.store")
        try:
            assert [r["value"] for r in copy.load()] == [1.5, 3.5]
        finally:
            copy.close()

    def test_pre_checksum_store_migrates_to_nothing(self, tmp_path):
        """Every record of a 1.4.0 store lacks a checksum: none is copied."""
        report = migrate_store(
            DATA / "sweep-7ea2f8f.jsonl", tmp_path / "m.sqlite"
        )
        assert report.copied == report.converted == 0
        assert not report.set_aside
        assert report.unverified == {"shard-json": 4, "point": 40, "job": 1}

    @pytest.mark.parametrize("command", ["info", "verify", "compact"])
    def test_pre_checksum_sqlite_refused_read_only(
        self, tmp_path, capsys, command
    ):
        """A file without ``blob``/``crc`` columns is refused, unaltered."""
        from repro.cli import main

        path = tmp_path / "old.sqlite"
        _pre_checksum_sqlite(path)
        before = _sha256(path)
        assert main(["store", command, str(path)]) == 2
        assert "1.7.0 or older" in capsys.readouterr().err
        assert _sha256(path) == before
        with sqlite3.connect(path) as conn:
            columns = {
                row[1] for row in conn.execute("PRAGMA table_info(records)")
            }
        assert not {"blob", "crc"} & columns

    def test_pre_checksum_sqlite_refused_by_migrate(self, tmp_path):
        path = tmp_path / "old.sqlite"
        _pre_checksum_sqlite(path)
        before = _sha256(path)
        with pytest.raises(ConfigurationError, match="1.7.0 or older"):
            migrate_store(path, tmp_path / "new.jsonl")
        assert _sha256(path) == before
        assert not (tmp_path / "new.jsonl").exists()


class TestVerifyCli:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        store.append(record("a"))
        store.close()
        assert main(["store", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "ok: every checksummed record verified" in out

    def test_damaged_store_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "s.jsonl")
        store = ResultStore(path)
        store.append_many([record("a"), record("bad")])
        _corrupt_one(store, "bad")
        assert main(["store", "verify", path]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out

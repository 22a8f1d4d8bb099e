"""Store integrity tests: checksums, quarantine, the verify scan."""

from __future__ import annotations

import json
import pathlib
import sqlite3
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.integrity import (
    CHECK_FIELD,
    canonical_body,
    check_token,
    damage_total,
    stamp_check,
    token_ok,
    verify_jsonable,
)
from repro.runner.store import ResultStore
from repro.telemetry import metrics

BACKENDS = ("jsonl", "sqlite")


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

    def test_legacy_record_is_unchecked(self):
        assert verify_jsonable(record("k")) is None

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
                try:
                    answers[backend] = [
                        [
                            (r["key"], r["value"])
                            for r in store.iter_latest_by_key(
                                status, keys=wanted
                            )
                        ]
                        for status in ("ok", None)
                        for wanted in (None, [f"k{k}" for k in keys])
                    ] + [store.get(f"k{key}") for key in range(5)]
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


class TestLegacyRecords:
    def test_unchecked_lines_still_readable(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record("old")) + "\n")
        store = ResultStore(str(path))
        try:
            assert store.get("old") is not None
            stats = store.verify()
        finally:
            store.close()
        assert stats["unchecked"] == 1
        assert damage_total(stats) == 0


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

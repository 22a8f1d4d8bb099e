"""Indexed SQLite backend for million-record campaign histories.

The same log semantics as the JSONL backend — records in append order,
latest ``ok`` wins — but persisted in a WAL-mode SQLite database with
an index on ``(key, id)``, so ``get``/``latest_by_key`` are O(log n)
index walks instead of O(n) full-file scans.  Each record is stored as
canonical compact JSON in the ``record`` column; ``key``/``job_id``/
``status``/``stored_at`` are denormalised into columns beside it.
(Files written by older builds also carry ``(job_id, id)`` and
``stored_at`` indexes, which no query uses; they keep them.)

Binary column payloads (:mod:`repro.runner.codec`) are lifted out of
the JSON text into the native ``blob`` column — raw little-endian
bytes, no base64 tax — and re-attached on decode, so the records the
cache, compaction, and migration layers see are identical to the JSONL
backend's.

Durability: WAL journaling with ``synchronous=NORMAL`` — every
acknowledged ``append`` survives a killed process (commits are ordered
and torn writes are rolled back on recovery); only an OS-level power
loss can lose the very latest commits, which matches the JSONL
backend's torn-trailing-line tolerance in spirit.

Integrity: each row carries a ``crc`` CRC-32 over its JSON text
chained with its native blob (:mod:`repro.runner.integrity`).  Every
decode verifies it and quarantines mismatches — the row is skipped
and counted (``store.sqlite.corrupt``), and a key whose newest record
is damaged is served its newest intact one, as in the JSONL log (or
reads as missing when it has none) — so bit rot inside a blob degrades
to an older result or a cache miss, never to silently wrong column
data.  A row with ``crc`` NULL is quarantined the same way.  A file
whose table has no ``blob`` or ``crc`` column was written by repro
1.7.0 or older, so none of its rows could be served: every command
refuses it on open, before any statement that writes, and leaves it
as it is.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Iterable, Iterator, Mapping

from ...errors import ConfigurationError
from ...faults import ACTION_TORN_WRITE, InjectedFault, fault_site
from ...telemetry import metrics
from ..codec import extract_blob, inject_blob
from ..integrity import row_checksum, tally_scan
from .base import surviving_indices, validate_record

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    key       TEXT NOT NULL,
    job_id    TEXT,
    status    TEXT NOT NULL,
    stored_at REAL,
    record    TEXT NOT NULL,
    blob      BLOB,
    crc       INTEGER
);
CREATE INDEX IF NOT EXISTS idx_records_key ON records (key, id);
"""

#: Compact JSON encoding shared with the JSONL backend.
_SEPARATORS = (",", ":")


def _row_id(hit: tuple[int, dict[str, Any]]) -> int:
    return hit[0]


class SqliteBackend:
    """WAL-mode SQLite persistence (see module docstring)."""

    name: str = "sqlite"

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        if os.path.isdir(self.path):
            raise ConfigurationError(
                f"store path {self.path!r} is a directory, need a file"
            )
        os.makedirs(
            os.path.dirname(os.path.abspath(self.path)), exist_ok=True
        )
        self._conn: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            try:
                conn = sqlite3.connect(self.path)
                # Checked before anything writes: a refused file is
                # left byte for byte as it was.
                columns = {
                    row[1]
                    for row in conn.execute("PRAGMA table_info(records)")
                }
                if columns and not {"blob", "crc"} <= columns:
                    conn.close()
                    raise ConfigurationError(
                        f"store {self.path!r} was written by repro 1.7.0 "
                        "or older: its records carry no checksums, so "
                        "none of them can be served; it is left as it "
                        "is (re-run into a new store)"
                    )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
                conn.commit()
            except sqlite3.DatabaseError as error:
                raise ConfigurationError(
                    f"store path {self.path!r} is not a SQLite result "
                    f"store: {error}"
                ) from error
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- writes ------------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        self.append_many([validate_record(record)])

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Insert a batch in order within a single transaction."""
        if not records:
            return
        fired = fault_site("store.append", records[0].get("job_id"))
        rows: list[
            tuple[
                str, str | None, str, float | None, str,
                bytes | None, int,
            ]
        ] = []
        for record in records:
            record = validate_record(record)
            stored_at = record.get("stored_at")
            jsonable, blob = extract_blob(record)
            text = json.dumps(
                jsonable, sort_keys=True, separators=_SEPARATORS
            )
            rows.append(
                (
                    record["key"],
                    record.get("job_id"),
                    record["status"],
                    float(stored_at) if stored_at is not None else None,
                    text,
                    blob,
                    row_checksum(text, blob),
                )
            )
        if fired is not None and fired.action == ACTION_TORN_WRITE:
            # Injected bit-rot model: the last row's payload loses its
            # tail while the checksum still covers the full payload —
            # exactly what scans must detect and quarantine.
            key, job_id, status, stored_at_f, text, blob, crc = rows[-1]
            if blob is not None and len(blob) > 0:
                blob = blob[: max(0, len(blob) - fired.torn_bytes)]
            else:
                text = text[: max(1, len(text) - fired.torn_bytes)]
            rows[-1] = (key, job_id, status, stored_at_f, text, blob, crc)
        # JSON text is ASCII (ensure_ascii), so len() counts bytes.
        metrics().count(
            "store.sqlite.append.bytes",
            sum(
                len(row[4]) + (len(row[5]) if row[5] is not None else 0)
                for row in rows
            ),
        )
        conn = self._connect()
        with conn:
            conn.executemany(
                "INSERT INTO records (key, job_id, status, stored_at,"
                " record, blob, crc) VALUES (?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        if fired is not None:
            raise InjectedFault(
                f"injected torn write ({fired.torn_bytes} bytes lost) "
                f"at {self.path}"
            )

    # -- reads -------------------------------------------------------------

    @staticmethod
    def _row_ok(row: tuple[str, bytes | None, int | None]) -> bool:
        """Verify one row's checksum (a NULL crc fails)."""
        return row[2] is not None and row_checksum(row[0], row[1]) == row[2]

    def _decode(
        self, row: tuple[str, bytes | None, int | None]
    ) -> dict[str, Any] | None:
        """Decode one verified row; ``None`` quarantines a corrupt one."""
        if not self._row_ok(row):
            self._quarantine()
            return None
        return inject_blob(json.loads(row[0]), row[1])

    @staticmethod
    def _quarantine() -> None:
        metrics().count("store.sqlite.corrupt")
        metrics().count("store.sqlite.quarantined")

    def load(self) -> list[dict[str, Any]]:
        return list(self.iter_records())

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """Stream records in append order from a dedicated cursor."""
        fault_site("store.iter")
        cursor = self._connect().execute(
            "SELECT record, blob, crc FROM records ORDER BY id"
        )
        for row in cursor:
            record = self._decode(row)
            if record is not None:
                yield record

    def iter_records_with_size(
        self,
    ) -> Iterator[tuple[dict[str, Any], int]]:
        """Stream ``(record, stored_bytes)`` pairs in append order.

        ``stored_bytes`` counts the JSON text plus the native blob —
        the per-record payload footprint ``repro store info`` reports.
        """
        fault_site("store.iter")
        cursor = self._connect().execute(
            "SELECT record, blob, crc FROM records ORDER BY id"
        )
        for row in cursor:
            record = self._decode(row)
            if record is None:
                continue
            size = len(row[0].encode("utf-8")) + (
                len(row[1]) if row[1] is not None else 0
            )
            yield record, size

    def scan(self) -> Iterator[tuple[dict[str, Any] | None, bool]]:
        """Every row as ``(record, verified)``, in append order.

        Read paths serve verified rows only; this is what ``verify``
        and ``repro store migrate`` account the others with.  A row
        failing or lacking its checksum comes back as parsed (its blob
        not attached), or as ``None`` when its JSON does not parse.
        """
        if not os.path.exists(self.path):
            return
        cursor = self._connect().execute(
            "SELECT record, blob, crc FROM records ORDER BY id"
        )
        for row in cursor:
            if self._row_ok(row):
                yield inject_blob(json.loads(row[0]), row[1]), True
                continue
            try:
                record = json.loads(row[0])
            except ValueError:
                record = None
            yield (record if isinstance(record, dict) else None), False

    def __len__(self) -> int:
        row = self._connect().execute(
            "SELECT COUNT(*) FROM records"
        ).fetchone()
        return int(row[0])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.load())

    def get(self, key: str) -> dict[str, Any] | None:
        fault_site("store.get", key)
        found = self._newest_intact(key, "ok")
        return found[1] if found is not None else None

    def _newest_intact(
        self, key: str, status: str | None, below: int | None = None
    ) -> tuple[int, dict[str, Any]] | None:
        """``(id, record)`` of ``key``'s newest intact row, or ``None``.

        Rows are tried newest first (matching ``status`` when given,
        older than id ``below`` when given); a damaged row is
        quarantined and the next older one tried — as in the JSONL
        log, where a record failing its checksum never wins.
        """
        sql = "SELECT id, record, blob, crc FROM records WHERE key = ?"
        params: list[Any] = [key]
        if status is not None:
            sql += " AND status = ?"
            params.append(status)
        if below is not None:
            sql += " AND id < ?"
            params.append(below)
        for row_id, *row in self._connect().execute(
            sql + " ORDER BY id DESC", params
        ):
            record = self._decode(tuple(row))
            if record is not None:
                return row_id, record
        return None

    def iter_latest_by_key(
        self,
        status: str | None = "ok",
        keys: Iterable[str] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream the newest intact record per key, in append order.

        ``keys`` restricts the winners to those content keys, each
        answered by an index walk from the key's newest row.  Without
        ``keys`` the winners stream off the ``(key, id)`` index from a
        dedicated cursor, so million-record histories stream in O(1)
        memory; a first pass over that index's winners finds the rare
        damaged one, whose key falls back to its newest intact row, and
        merges that row into its place in append order.
        """
        fault_site("store.iter")
        if keys is not None:
            hits = (self._newest_intact(key, status) for key in set(keys))
            for _, record in sorted(filter(None, hits), key=_row_id):
                yield record
            return
        conn = self._connect()
        params: tuple[str, ...] = () if status is None else (status,)
        where = "" if status is None else " WHERE status = ?"
        winners = (
            "SELECT id, key, record, blob, crc FROM records WHERE id IN"
            f" (SELECT MAX(id) FROM records{where} GROUP BY key)"
        )
        damaged: set[int] = set()
        fallbacks: list[tuple[int, dict[str, Any]]] = []
        for row_id, key, *row in conn.execute(winners, params):
            if not self._row_ok(tuple(row)):
                self._quarantine()
                damaged.add(row_id)
                hit = self._newest_intact(key, status, below=row_id)
                if hit is not None:
                    fallbacks.append(hit)
        # Sorted newest first, so pop() hands back the oldest first.
        fallbacks.sort(key=_row_id, reverse=True)
        for row_id, _, *row in conn.execute(winners + " ORDER BY id", params):
            while fallbacks and fallbacks[-1][0] < row_id:
                yield fallbacks.pop()[1]
            if row_id in damaged:
                continue
            record = self._decode(tuple(row))
            if record is not None:
                yield record
        while fallbacks:
            yield fallbacks.pop()[1]

    def latest_by_key(
        self, status: str | None = "ok"
    ) -> dict[str, dict[str, Any]]:
        return {
            record["key"]: record
            for record in self.iter_latest_by_key(status)
        }

    def keys(self) -> set[str]:
        cursor = self._connect().execute(
            "SELECT DISTINCT key FROM records WHERE status = 'ok'"
        )
        return {row[0] for row in cursor}

    # -- maintenance -------------------------------------------------------

    def verify(self) -> dict[str, Any]:
        """Full-table integrity pass (see :mod:`repro.runner.integrity`).

        Counts every row: verified, corrupt (failing or lacking the row
        checksum, charged to a payload kind when the JSON still
        parses), and unreadable (unparseable JSON).  Read-only;
        quarantined rows stay in place.
        """
        return tally_scan(self.name, self.scan())

    def compact(self) -> int:
        """Delete superseded and unserved rows and reclaim their space.

        Keeps, per key, the newest intact row overall and the newest
        intact ``ok`` row, and deletes every row failing or lacking its
        checksum — identical semantics to the JSONL backend's rewrite
        (see :func:`~repro.runner.backends.base.surviving_indices`).
        """
        conn = self._connect()
        intact: list[int] = []
        doomed: list[int] = []

        def heads() -> Iterator[dict[str, Any]]:
            for row_id, key, status, *row in conn.execute(
                "SELECT id, key, status, record, blob, crc FROM records"
                " ORDER BY id"
            ):
                if self._row_ok(tuple(row)):
                    intact.append(row_id)
                    yield {"key": key, "status": status}
                else:
                    doomed.append(row_id)

        keep = set(surviving_indices(heads()))
        doomed += [
            row_id
            for index, row_id in enumerate(intact)
            if index not in keep
        ]
        if doomed:
            with conn:
                conn.executemany(
                    "DELETE FROM records WHERE id = ?",
                    [(row_id,) for row_id in doomed],
                )
            conn.execute("VACUUM")
        return len(doomed)

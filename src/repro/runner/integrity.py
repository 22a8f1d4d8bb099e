"""Record integrity: stdlib checksums and quarantine accounting.

Both store backends stamp every record with a CRC-32 checksum at
append time and verify it on every scan, so silent corruption — a
torn write past the JSON parser's tolerance, a flipped bit in a
column blob, a truncated SQLite row — is *detected and skipped*, never
returned as data.  A damaged record is quarantined in place: the scan
counts it (``store.<backend>.corrupt`` on read paths, plus a
``store.<backend>.quarantined`` telemetry counter shared with verify
scans), moves on, and the content
key it occupied simply reads as "missing", which the campaign layer
already treats as "re-compute".  Nothing crashes, nothing is silently
wrong.

The checksum is CRC-32 via :func:`zlib.crc32` — the strongest
integrity check the standard library computes at C speed (the CRC32C
polynomial itself has no stdlib implementation, and a pure-Python
table walk would tax million-record scans; the error-detection
properties here are equivalent for this purpose).  Tokens are
self-describing (``"crc32:9c3f0a11"``) so a future backend can adopt
a different algorithm without a format break.

Checksums are storage-layer-internal: the JSONL backend embeds the
token as a ``"check"`` field computed over the record's canonical
JSON *without* that field, and strips it again on read; the SQLite
backend keeps a ``crc`` column over the row's JSON text plus its
native blob.  A record is served only when its checksum verifies: one
written before checksums existed (repro 1.7.0 or older, which the
cache already refuses as stale) has no token and is quarantined like
a mismatch.  ``repro store migrate`` sets such records aside.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Iterable, Mapping

#: Record field the JSONL backend stores its token in.
CHECK_FIELD = "check"

#: Token prefix naming the checksum algorithm.
CHECK_PREFIX = "crc32:"

#: Compact JSON encoding shared with the backends.
_SEPARATORS = (",", ":")


def checksum_bytes(data: bytes, value: int = 0) -> int:
    """CRC-32 of ``data`` (chainable via ``value`` like zlib.crc32)."""
    return zlib.crc32(data, value) & 0xFFFFFFFF


def check_token(data: bytes) -> str:
    """The self-describing checksum token for one payload."""
    return f"{CHECK_PREFIX}{checksum_bytes(data):08x}"


def token_ok(token: Any, data: bytes) -> bool:
    """Whether a stored token matches ``data``.

    Unknown token shapes (wrong prefix, not a string) fail closed —
    a record claiming a checksum we cannot verify is treated as
    corrupt, not waved through.
    """
    if not isinstance(token, str) or not token.startswith(CHECK_PREFIX):
        return False
    return token == check_token(data)


def canonical_body(record: Mapping[str, Any]) -> str:
    """The canonical JSON text a record's checksum covers.

    Sorted keys, compact separators, ``check`` field excluded — the
    exact line body the JSONL backend writes, reproducible from the
    parsed record because canonical JSON round-trips byte-stable
    through ``json.loads``/``json.dumps``.
    """
    if CHECK_FIELD in record:
        record = {k: v for k, v in record.items() if k != CHECK_FIELD}
    return json.dumps(record, sort_keys=True, separators=_SEPARATORS)


def stamp_check(jsonable: dict[str, Any]) -> dict[str, Any]:
    """Return ``jsonable`` with a fresh ``check`` token embedded."""
    jsonable.pop(CHECK_FIELD, None)
    body = json.dumps(jsonable, sort_keys=True, separators=_SEPARATORS)
    jsonable[CHECK_FIELD] = check_token(body.encode("utf-8"))
    return jsonable


def verify_jsonable(record: dict[str, Any]) -> bool:
    """Verify and strip a parsed JSONL record's ``check`` field.

    Returns whether the token matched; a record without one fails.
    The ``check`` field is removed either way — checksums never leak
    to upper layers.
    """
    token = record.pop(CHECK_FIELD, None)
    body = json.dumps(record, sort_keys=True, separators=_SEPARATORS)
    return token_ok(token, body.encode("utf-8"))


def row_checksum(record_json: str, blob: bytes | None) -> int:
    """The SQLite row checksum: JSON text chained with the blob."""
    value = checksum_bytes(record_json.encode("utf-8"))
    if blob is not None:
        value = checksum_bytes(blob, value)
    return value


def tally_scan(
    backend: str,
    scan: Iterable[tuple[Mapping[str, Any] | None, bool]],
) -> dict[str, Any]:
    """Count a backend's ``scan()`` into the ``store verify`` stats.

    Every stored record is counted once: verified, corrupt (readable
    but failing or lacking its checksum, charged to its payload kind),
    or unreadable (``None``: not a JSON object, e.g. a torn trailing
    line).  Each corrupt record also counts
    ``store.<backend>.quarantined`` in the telemetry registry.
    """
    from ..telemetry import metrics
    from .codec import payload_kind

    stats: dict[str, Any] = {
        "backend": backend,
        "records": 0,
        "checked": 0,
        "corrupt": {},
        "corrupt_total": 0,
        "unreadable": 0,
    }
    for record, verified in scan:
        stats["records"] += 1
        if record is None:
            stats["unreadable"] += 1
        elif verified:
            stats["checked"] += 1
        else:
            kind = payload_kind(record)
            stats["corrupt"][kind] = stats["corrupt"].get(kind, 0) + 1
            stats["corrupt_total"] += 1
            metrics().count(f"store.{backend}.quarantined")
    return stats


def damage_total(stats: Mapping[str, Any]) -> int:
    """Records that failed verification (corrupt + unreadable)."""
    return int(stats["corrupt_total"]) + int(stats["unreadable"])

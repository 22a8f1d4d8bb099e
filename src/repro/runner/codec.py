"""Columnar binary codec for sweep point payloads.

A sharded sweep stores each shard's results as *columns*: named
``float64``/``int64`` arrays (and one-byte category codes) packed as
raw little-endian bytes in one contiguous blob, decoded straight back
to numpy with ``np.frombuffer``, so no per-point Python object is
built on the way in or out.

Payload shape (the in-memory record value)::

    {
        "codec": "columnar",          # payload-kind marker
        "format": 1,                  # storage-format version stamp
        "count": N,                   # points in this payload
        "points_kind": "mapping",     # or "scalar"
        "values": {descriptor},       # the grid-value column
        "columns": [{descriptor}...], # one per metric, in order
        "blob": b"...",               # concatenated column bytes
    }

Column descriptors carry ``name`` and ``dtype``: ``"<f8"`` (float64),
``"<i8"`` (int64), ``"|u1"`` with a ``categories`` list (bools and
small string vocabularies stored as one-byte codes), or ``"json"``
with inline ``data`` — the lossless fallback for columns the binary
dtypes cannot represent exactly.  Type mapping is *exact by
construction*: numpy columns pack by their dtype, and a list column
packs binary only when every value is the same Python scalar type, so
every column decodes to exactly the values it was given (NaN/inf
included: IEEE doubles carry them natively).

Bytes cross the persistence boundary two ways:

* the JSONL backend replaces every ``bytes`` value with an
  ``{"@bytes": "<base64>"}`` marker on write and inverts it on read
  (:func:`jsonable_bytes` / :func:`restore_bytes`),
* the SQLite backend lifts bytes out into a native ``BLOB`` column,
  leaving ``{"@blob": [offset, length]}`` references in the JSON text
  (:func:`extract_blob` / :func:`inject_blob`).

Either way the record the rest of the system sees — cache, compaction,
migration — carries real ``bytes``, so columnar payloads move between
backends verbatim and a JSONL↔SQLite migration is still byte-exact.

Storage format 1 columnar payloads are the one form sharded sweeps
write and the one form they read.  Older builds also wrote per-point
``{"values", "points"}`` shard payloads, merged ``columnar-block``
records and one record per point; only ``repro store migrate``
(:func:`~repro.runner.store.migrate_store`) reads those, converting
the per-point shard payloads to this form.
"""

from __future__ import annotations

import base64
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError
from ..faults import fault_site
from ..telemetry import metrics

# numpy is imported inside the array functions only: both store
# backends import this module for its bytes helpers, and a fully cached
# campaign never touches an array.
if TYPE_CHECKING:
    import numpy as np

#: Payload-kind marker of uniform numeric/categorical point series
#: packed as binary columns.
CODEC_COLUMNAR = "columnar"

#: Storage-format version stamped into every columnar payload.  Bump it
#: when the payload layout changes; decoders refuse formats they do not
#: know instead of misreading bytes.
STORAGE_FORMAT = 1

#: Marker key for base64-encoded bytes inside JSONL records.
BYTES_KEY = "@bytes"
#: Marker key for ``[offset, length]`` references into a SQLite BLOB.
BLOB_KEY = "@blob"

#: Column name used when points are plain scalars, not mappings.
SCALAR_COLUMN = "value"

#: ``points_kind`` values.
KIND_MAPPING = "mapping"
KIND_SCALAR = "scalar"

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
_DTYPE_F8 = "<f8"
_DTYPE_I8 = "<i8"
_DTYPE_U1 = "|u1"
_DTYPE_JSON = "json"
_ITEMSIZE = {_DTYPE_F8: 8, _DTYPE_I8: 8, _DTYPE_U1: 1}


# -- column packing --------------------------------------------------------


def _column_bytes(column: Any, dtype: str) -> bytes:
    """One column as contiguous little-endian ``dtype`` bytes."""
    import numpy as np

    return np.ascontiguousarray(column, dtype=dtype).tobytes()


def _pack_ndarray(column: np.ndarray) -> tuple[dict[str, Any], bytes] | None:
    """Pack a typed numpy column without a per-value type scan."""
    import numpy as np

    kind = column.dtype.kind
    if kind == "f":
        return {"dtype": _DTYPE_F8}, _column_bytes(column, _DTYPE_F8)
    if kind in "iu" and column.dtype.itemsize <= 8:
        if kind == "u" and column.dtype.itemsize == 8:
            return None  # uint64 may exceed int64; let the scan decide
        return {"dtype": _DTYPE_I8}, _column_bytes(column, _DTYPE_I8)
    if kind == "b":
        return (
            {"dtype": _DTYPE_U1, "categories": [False, True]},
            _column_bytes(column, _DTYPE_U1),
        )
    if kind == "U":
        # Factorise by runs: a sweep's labels change a few times over
        # thousands of points, so only the run heads are sorted.
        heads = np.flatnonzero(column[1:] != column[:-1]) + 1
        if column.size:
            heads = np.concatenate(([0], heads))
        categories, head_codes = np.unique(
            column[heads], return_inverse=True
        )
        if categories.size <= 255:
            codes = np.repeat(head_codes, np.diff(heads, append=column.size))
            return (
                {"dtype": _DTYPE_U1, "categories": categories.tolist()},
                _column_bytes(codes, _DTYPE_U1),
            )
    return None


def _pack_values(values: Sequence[Any]) -> tuple[dict[str, Any], bytes]:
    """Pack one column, choosing the tightest exact representation.

    Numpy columns pack by dtype; a list packs binary only when every
    value shares one Python scalar type (so decoding restores exactly
    those values); anything else falls back to an inline ``json``
    column.
    Returns ``(descriptor, column_bytes)`` — ``json`` columns carry
    their data inline and contribute no bytes.
    """
    import numpy as np

    if isinstance(values, np.ndarray):
        packed = _pack_ndarray(values)
        if packed is not None:
            return packed
        values = values.tolist()
    else:
        values = list(values)
    if values and all(type(v) is float for v in values):
        return {"dtype": _DTYPE_F8}, _column_bytes(values, _DTYPE_F8)
    if values and all(type(v) is bool for v in values):
        return (
            {"dtype": _DTYPE_U1, "categories": [False, True]},
            _column_bytes(values, _DTYPE_U1),
        )
    if (
        values
        and all(type(v) is int for v in values)
        and _I64_MIN <= min(values)
        and max(values) <= _I64_MAX
    ):
        return {"dtype": _DTYPE_I8}, _column_bytes(values, _DTYPE_I8)
    if values and all(type(v) is str for v in values):
        seen: dict[str, int] = {}
        codes = [seen.setdefault(v, len(seen)) for v in values]
        if len(seen) <= 255:
            return (
                {"dtype": _DTYPE_U1, "categories": list(seen)},
                _column_bytes(codes, _DTYPE_U1),
            )
    # Inline fallback: the values as the store's JSON holds them.
    from .jobs import json_safe

    return {"dtype": _DTYPE_JSON, "data": json_safe(list(values))}, b""


def _unpack_array(
    descriptor: Mapping[str, Any], blob: bytes, offset: int, count: int
) -> tuple[np.ndarray | list[Any], int]:
    """Decode one column to its natural array; return (column, new offset)."""
    import numpy as np

    dtype = descriptor["dtype"]
    if dtype == _DTYPE_JSON:
        return list(descriptor["data"]), offset
    nbytes = count * _ITEMSIZE[dtype]
    if offset + nbytes > len(blob):
        raise ConfigurationError(
            "columnar payload blob is truncated "
            f"(need {offset + nbytes} bytes, have {len(blob)})"
        )
    raw = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    if dtype == _DTYPE_U1:
        categories = descriptor.get("categories")
        if categories == [False, True]:
            return raw.astype(bool), offset + nbytes
        if categories is None:
            raise ConfigurationError(
                "u1 column without categories in columnar payload"
            )
        if raw.size and int(raw.max()) >= len(categories):
            raise ConfigurationError(
                "columnar category code out of range"
            )
        return np.asarray(categories)[raw], offset + nbytes
    return raw, offset + nbytes


# -- payload packing -------------------------------------------------------


def pack_series(
    values: Sequence[Any],
    series: Mapping[str, Sequence[Any]],
    points_kind: str = KIND_MAPPING,
) -> dict[str, Any]:
    """Pack grid values plus per-metric series into a columnar payload.

    ``series`` maps column name to one value per grid point, the shape
    batch targets already produce — no per-point dicts are built on the
    way in.  Never fails: columns the binary dtypes cannot represent
    exactly ride along as inline ``json`` columns.
    """
    start_ns = time.perf_counter_ns()
    count = len(values)
    parts: list[bytes] = []
    values_desc, values_bytes = _pack_values(values)
    parts.append(values_bytes)
    columns: list[dict[str, Any]] = []
    for name, column in series.items():
        if len(column) != count:
            raise ConfigurationError(
                f"column {name!r} has {len(column)} values for a "
                f"{count}-point payload"
            )
        descriptor, column_bytes = _pack_values(column)
        descriptor["name"] = str(name)
        columns.append(descriptor)
        parts.append(column_bytes)
    payload = {
        "codec": CODEC_COLUMNAR,
        "format": STORAGE_FORMAT,
        "count": count,
        "points_kind": points_kind,
        "values": values_desc,
        "columns": columns,
        "blob": b"".join(parts),
    }
    registry = metrics()
    registry.count("codec.pack.calls")
    registry.count("codec.pack.points", count)
    registry.count("codec.pack.ns", time.perf_counter_ns() - start_ns)
    return payload


def is_columnar(payload: Any) -> bool:
    """Whether a record value is a columnar payload this codec reads."""
    if not isinstance(payload, Mapping):
        return False
    if payload.get("codec") != CODEC_COLUMNAR:
        return False
    if payload.get("format") != STORAGE_FORMAT:
        raise ConfigurationError(
            f"columnar payload has storage format "
            f"{payload.get('format')!r}; this build reads format "
            f"{STORAGE_FORMAT}"
        )
    return True


def unpack_columns(
    payload: Mapping[str, Any],
) -> tuple[np.ndarray | list[Any], dict[str, np.ndarray | list[Any]], str]:
    """Decode a columnar payload straight to arrays.

    Returns ``(values, {name: column}, points_kind)``; binary columns
    come back as numpy arrays backed by the payload blob (zero copy for
    float64/int64), ``json`` columns as plain lists.
    """
    fault_site("codec.unpack")
    start_ns = time.perf_counter_ns()
    count = int(payload["count"])
    blob = payload["blob"]
    if not isinstance(blob, (bytes, bytearray)):
        raise ConfigurationError(
            "columnar payload blob is not bytes (store decode missing?)"
        )
    blob = bytes(blob)
    values, offset = _unpack_array(payload["values"], blob, 0, count)
    columns: dict[str, np.ndarray | list[Any]] = {}
    for descriptor in payload["columns"]:
        column, offset = _unpack_array(descriptor, blob, offset, count)
        columns[descriptor["name"]] = column
    registry = metrics()
    registry.count("codec.unpack.calls")
    registry.count("codec.unpack.points", count)
    registry.count("codec.unpack.ns", time.perf_counter_ns() - start_ns)
    return values, columns, str(payload.get("points_kind", KIND_MAPPING))


# -- bytes across the persistence boundary ---------------------------------


def _walk(obj: Any, swap: Callable[[Any], Any]) -> Any:
    """Rebuild ``obj`` with ``swap`` applied to each of its nodes.

    ``swap`` sees each node first; where it hands the node back
    unchanged, the walk descends into dicts and lists.  Containers are
    copied only along a changed path, so a record with nothing to swap
    comes back as itself.  The walkers are module-level functions on
    purpose: a nested walker that calls itself is a function-cell
    reference cycle, which keeps each record's blob alive until the
    cyclic garbage collector runs.
    """
    swapped = swap(obj)
    if swapped is not obj:
        return swapped
    if isinstance(obj, dict):
        out = None
        for key, value in obj.items():
            walked = _walk(value, swap)
            if walked is not value:
                if out is None:
                    out = dict(obj)
                out[key] = walked
        return out if out is not None else obj
    if isinstance(obj, list):
        out_list = None
        for index, value in enumerate(obj):
            walked = _walk(value, swap)
            if walked is not value:
                if out_list is None:
                    out_list = list(obj)
                out_list[index] = walked
        return out_list if out_list is not None else obj
    return obj


def _wrap_bytes(node: Any) -> Any:
    if isinstance(node, (bytes, bytearray)):
        return {BYTES_KEY: base64.b64encode(bytes(node)).decode("ascii")}
    return node


def _unwrap_bytes(node: Any) -> Any:
    if (
        isinstance(node, dict)
        and len(node) == 1
        and isinstance(node.get(BYTES_KEY), str)
    ):
        return base64.b64decode(node[BYTES_KEY].encode("ascii"))
    return node


def _lift_bytes(parts: list[bytes], node: Any) -> Any:
    if not isinstance(node, (bytes, bytearray)):
        return node
    offset = sum(len(part) for part in parts)
    parts.append(bytes(node))
    return {BLOB_KEY: [offset, len(node)]}


def _slice_blob(blob: bytes, node: Any) -> Any:
    if isinstance(node, dict) and len(node) == 1 and BLOB_KEY in node:
        reference = node[BLOB_KEY]
        if (
            isinstance(reference, list)
            and len(reference) == 2
            and all(isinstance(v, int) for v in reference)
        ):
            start, length = reference
            return blob[start : start + length]
    return node


def jsonable_bytes(obj: Any) -> Any:
    """Copy ``obj`` with every ``bytes`` value base64-wrapped for JSON.

    Returns ``obj`` itself (no copy) when nothing needed encoding, so
    the common no-bytes record costs a traversal and nothing else.
    """
    return _walk(obj, _wrap_bytes)


def restore_bytes(obj: Any) -> Any:
    """Invert :func:`jsonable_bytes` after a JSON load."""
    return _walk(obj, _unwrap_bytes)


def extract_blob(record: Mapping[str, Any]) -> tuple[Any, bytes | None]:
    """Lift every ``bytes`` value out of ``record`` into one buffer.

    Returns ``(jsonable_record, blob)``: bytes values are replaced with
    ``{"@blob": [offset, length]}`` references into the concatenated
    buffer (``None`` when the record carries no bytes).  The SQLite
    backend stores the buffer in a native BLOB column so binary
    payloads never pay a base64 tax.
    """
    parts: list[bytes] = []
    jsonable = _walk(dict(record), partial(_lift_bytes, parts))
    return jsonable, b"".join(parts) if parts else None


def inject_blob(record: Any, blob: bytes | None) -> Any:
    """Invert :func:`extract_blob` when decoding a SQLite row."""
    if blob is None:
        return record
    return _walk(record, partial(_slice_blob, blob))


# -- store introspection ---------------------------------------------------


def payload_kind(record: Mapping[str, Any]) -> str:
    """Classify one store record for ``repro store info`` breakdowns.

    Kinds: ``columnar-shard`` (shard payloads in the binary codec),
    ``job`` (campaign job results), ``other``, and three kinds only
    older builds wrote, which ``repro store migrate`` converts or sets
    aside: ``shard-json`` (per-point JSON shard payloads),
    ``columnar-block`` (merged point blocks beside the shard payloads)
    and ``point`` (one record per grid point).
    """
    value = record.get("value")
    if isinstance(value, Mapping):
        if value.get("codec") == CODEC_COLUMNAR:
            return (
                "columnar-block" if "block" in value else "columnar-shard"
            )
        if "values" in value and "points" in value:
            return "shard-json"
    if "kind" in record:
        return "job"
    if "target" not in record and "kind" not in record:
        job_id = record.get("job_id")
        if isinstance(job_id, str) and job_id.endswith("]"):
            return "point"
    return "other"


def concat_columns(
    segments: Iterable[np.ndarray | list[Any]],
) -> np.ndarray | list[Any]:
    """Concatenate decoded column segments, staying array-native."""
    import numpy as np

    parts = list(segments)
    if not parts:
        return []
    if all(isinstance(part, np.ndarray) for part in parts):
        arrays = [part for part in parts if isinstance(part, np.ndarray)]
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    merged: list[Any] = []
    for part in parts:
        merged.extend(
            part.tolist() if isinstance(part, np.ndarray) else part
        )
    return merged

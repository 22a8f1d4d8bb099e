"""Columnar codec tests: round-trip parity, backends, migration, resume.

The codec's contract is *bit-exact round trips*: whatever columns a
sweep packs decode back to the same values — same Python types when
listed, NaN/inf included — and a store of them answers a sweep exactly
as one direct evaluation of its grid does.  These tests drive that
contract property-based (hypothesis generates adversarial column
mixes), through both persistence backends, across store migration,
through a crash-resumed merge, and through ``repro store migrate`` on
stores that older builds wrote (``tests/runner/data``).
"""

from __future__ import annotations

import gc
import math
import pathlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runner import (
    Campaign,
    ResultStore,
    collect_arrays,
    grid_descriptor,
    migrate_store,
    run_campaign,
    run_sharded_sweep,
    sharded_sweep_campaign,
)
from repro.runner.codec import (
    STORAGE_FORMAT,
    extract_blob,
    inject_blob,
    is_columnar,
    jsonable_bytes,
    pack_series,
    payload_kind,
    restore_bytes,
    unpack_columns,
)
from repro.runner.sharding import merge_shards
from repro.runner.store import series_from_points

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
TARGET_DSPACE = "repro.core.batch:evaluate_rate_grid"

#: Stores older builds wrote, one per commit (see data/README.md).
DATA = pathlib.Path(__file__).parent / "data"
#: The grid every store in DATA swept.
FIXTURE_GRID = grid_descriptor("geomspace", 32e3, 4096e3, 40)


def fixture_copy(tmp_path, commit):
    """A writable copy of the store ``commit`` wrote."""
    path = tmp_path / f"sweep-{commit}.jsonl"
    shutil.copyfile(DATA / f"sweep-{commit}.jsonl", path)
    return path


def fixture_campaign(store_path):
    """The current build's campaign for the fixtures' sweep."""
    return sharded_sweep_campaign(
        "sweep", TARGET_DSPACE, "rate_bps", FIXTURE_GRID,
        store_path=str(store_path), shards=4,
    )


def column_bits(columns):
    """A :class:`SweepColumns` as ``(name, dtype, bytes)`` per column.

    Grid values first, then the metrics by name, so two sweeps compare
    equal only when every column matches bit for bit (-0.0 and NaN
    payloads included) whatever order their columns were packed in.
    """
    arrays = sorted(columns.columns.items())
    return columns.points_kind, [
        (name, column.dtype.str, column.tobytes())
        for name, column in [("", columns.values), *arrays]
    ]


def listed(column):
    """A decoded column as Python values (the round-trip oracle's view)."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def same_value(a, b) -> bool:
    """Type-exact equality where ``nan == nan`` (the round-trip oracle)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def same_points(left, right) -> bool:
    """Element-wise :func:`same_value` over two sequences."""
    return len(left) == len(right) and all(
        same_value(a, b) for a, b in zip(left, right)
    )


# Column element strategies: one uniform scalar type per column (the
# binary dtypes), plus deliberately mixed columns that must fall back
# to inline JSON without losing exactness.
_floats = st.floats(allow_nan=True, allow_infinity=True)
_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_huge_ints = st.integers(min_value=2**63, max_value=2**70)
_strs = st.text(
    alphabet="abcdefgXYZ ", max_size=6
)
_mixed = st.one_of(_floats, _ints, st.booleans(), _strs, st.none())

_column_kinds = st.sampled_from(
    ["float", "int", "bool", "str", "huge", "mixed"]
)
_ELEMENTS = {
    "float": _floats,
    "int": _ints,
    "bool": st.booleans(),
    "str": _strs,
    "huge": _huge_ints,
    "mixed": _mixed,
}


@st.composite
def mapping_sweeps(draw):
    """(values, series) with 1..4 columns of adversarial type mixes."""
    count = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(_floats, min_size=count, max_size=count)
    )
    names = draw(
        st.lists(
            st.text(alphabet="abcxyz_", min_size=1, max_size=6),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    series = {}
    for name in names:
        kind = draw(_column_kinds)
        series[name] = draw(
            st.lists(_ELEMENTS[kind], min_size=count, max_size=count)
        )
    return values, series


def assert_round_trip(values, series, payload):
    """``payload`` decodes to exactly ``values`` and ``series``."""
    out_values, columns, _ = unpack_columns(payload)
    assert same_points(values, listed(out_values))
    assert list(columns) == list(series)
    for name, column in series.items():
        assert same_points(column, listed(columns[name]))


class TestRoundTrip:
    @given(mapping_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_mapping_points_bit_exact(self, sweep):
        values, series = sweep
        payload = pack_series(values, series)
        assert is_columnar(payload)
        assert payload["points_kind"] == "mapping"
        assert_round_trip(values, series, payload)

    @given(
        st.lists(
            st.one_of(_floats, _ints, st.booleans(), _strs),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_points_bit_exact(self, points):
        values = [float(i) for i in range(len(points))]
        payload = pack_series(values, {"value": points}, "scalar")
        assert unpack_columns(payload)[2] == "scalar"
        assert_round_trip(values, {"value": points}, payload)

    def test_nan_inf_native(self):
        values = [1.0, 2.0, 3.0]
        payload = pack_series(values, {"m": [math.nan, math.inf, -math.inf]})
        # All-float column: packed binary, not the JSON fallback.
        assert payload["columns"][0]["dtype"] == "<f8"
        out = unpack_columns(payload)[1]["m"].tolist()
        assert math.isnan(out[0])
        assert out[1] == math.inf
        assert out[2] == -math.inf

    def test_ragged_mappings_refuse_to_columnise(self):
        assert series_from_points([{"a": 1}, {"b": 2}]) is None
        assert series_from_points([{"a": 1}, 3.0]) is None
        assert series_from_points([[1, 2]]) is None
        assert series_from_points([{"a": 1}, {"a": 2}]) == (
            "mapping", {"a": [1, 2]}
        )
        assert series_from_points([2.0, 3]) == ("scalar", {"value": [2.0, 3]})

    def test_unknown_storage_format_fails_loudly(self):
        payload = pack_series([1.0], {"value": [2.0]}, "scalar")
        payload["format"] = STORAGE_FORMAT + 1
        with pytest.raises(ConfigurationError):
            is_columnar(payload)

    def test_arrays_decode_without_point_objects(self):
        values = [1.0, 2.0, 4.0]
        payload = pack_series(
            values, {"m": [0.5, 1.5, 2.5], "n": [2, 3, 4]}
        )
        out_values, columns, kind = unpack_columns(payload)
        assert kind == "mapping"
        assert isinstance(out_values, np.ndarray)
        assert out_values.dtype == np.float64
        assert columns["m"].dtype == np.float64
        assert columns["n"].dtype == np.int64
        assert np.array_equal(columns["m"], [0.5, 1.5, 2.5])


class TestBytesAcrossBackends:
    def test_jsonable_bytes_roundtrip(self):
        record = {
            "key": "k",
            "value": {"blob": b"\x00\x01\xff", "nested": [b"ab", 1]},
        }
        encoded = jsonable_bytes(record)
        assert encoded["value"]["blob"] == {"@bytes": "AAH/"}
        assert restore_bytes(encoded) == record
        # No-bytes records come back identical (and uncopied).
        plain = {"key": "k", "value": 1}
        assert jsonable_bytes(plain) is plain

    def test_extract_inject_blob_roundtrip(self):
        record = {
            "key": "k",
            "value": {"blob": b"abcd", "more": [b"xy"]},
        }
        jsonable, blob = extract_blob(record)
        assert blob == b"abcdxy"
        assert jsonable["value"]["blob"] == {"@blob": [0, 4]}
        assert inject_blob(jsonable, blob) == record
        plain = {"key": "k", "value": 1}
        jsonable, blob = extract_blob(plain)
        assert blob is None and jsonable == plain

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @given(mapping_sweeps())
    @settings(max_examples=25, deadline=None)
    def test_store_roundtrip_bit_exact(self, tmp_path_factory, backend,
                                       sweep):
        values, series = sweep
        payload = pack_series(values, series)
        path = tmp_path_factory.mktemp("codec") / f"s.{backend}"
        store = ResultStore(path, backend=backend)
        store.append({"key": "k", "status": "ok", "value": payload})
        stored = store.get("k")
        store.close()
        assert stored["value"]["blob"] == payload["blob"]
        assert_round_trip(values, series, stored["value"])


def _sweep_store(path, backend=None, values=GRID):
    """Run a 4-shard sweep of ``values`` into ``path``; its campaign."""
    campaign = sharded_sweep_campaign(
        "sweep",
        TARGET_DSPACE,
        "rate_bps",
        values,
        store_path=str(path),
        shards=4,
    )
    result = run_campaign(
        campaign, store_path=str(path), store_backend=backend
    )
    assert result.ok
    return campaign


class TestMigration:
    def test_migrate_across_payload_kinds_both_directions(self, tmp_path):
        """Columnar payloads survive JSONL -> SQLite -> JSONL verbatim."""
        jsonl_path = tmp_path / "a.jsonl"
        campaign = _sweep_store(jsonl_path, backend="jsonl")
        sqlite_path = tmp_path / "b.sqlite"
        report = migrate_store(jsonl_path, sqlite_path)
        back_path = tmp_path / "c.jsonl"
        migrate_store(sqlite_path, back_path, dst_backend="jsonl")

        source = ResultStore(jsonl_path).load()
        via = ResultStore(sqlite_path).load()
        back = ResultStore(back_path).load()
        assert report.copied == len(source) and report.converted == 0
        assert not report.set_aside and not report.unverified
        assert source == via == back  # bytes payloads included

        # The migrated store answers sweep queries as its source does.
        arrays = collect_arrays(str(sqlite_path), campaign)
        assert arrays.values.tolist() == GRID
        assert column_bits(arrays) == column_bits(
            collect_arrays(str(jsonl_path), campaign)
        )

    def test_mixed_payload_kind_store_migrates(self, tmp_path):
        """Per-point and columnar payloads in one store migrate to one form.

        The per-point shard payloads of an older build become columnar
        under the same keys, its ``point`` records are set aside, and
        the columnar sweep beside them is copied as it is.
        """
        path = fixture_copy(tmp_path, "88cd83f")
        columnar = _sweep_store(path)
        legacy = fixture_campaign(path)
        store = ResultStore(path)
        kinds = {payload_kind(record) for record in store.iter_records()}
        total = len(store)
        store.close()
        assert kinds == {"shard-json", "point", "columnar-shard", "job"}

        dst = tmp_path / "mixed.sqlite"
        report = migrate_store(path, dst)
        assert report.converted == 4
        assert report.set_aside == {"point": 40}
        assert not report.unverified
        assert report.copied == total - 40
        store = ResultStore(dst)
        kinds = {payload_kind(record) for record in store.iter_records()}
        store.close()
        assert kinds == {"columnar-shard", "job"}

        reference = tmp_path / "reference.sqlite"
        _sweep_store(reference)
        assert column_bits(collect_arrays(str(dst), columnar)) == (
            column_bits(collect_arrays(str(reference), columnar))
        )
        assert run_sharded_sweep(
            "sweep", TARGET_DSPACE, "rate_bps", FIXTURE_GRID,
            store_path=str(reference), shards=4,
        ).ok
        assert column_bits(collect_arrays(str(dst), legacy)) == (
            column_bits(collect_arrays(str(reference), legacy))
        )

    def test_cli_sweep_names_migrate_then_serves_the_copy(
        self, tmp_path, capsys
    ):
        """An old store fails loudly; its migrated copy serves the shards."""
        from repro.cli import main

        old = fixture_copy(tmp_path, "88cd83f")
        new = tmp_path / "new.jsonl"
        sweep = [
            "sweep", TARGET_DSPACE, "--parameter", "rate_bps",
            "--min", "32e3", "--max", "4096e3", "--points", "40",
            "--shards", "4", "--quiet", "--store",
        ]
        assert main(sweep + [str(old)]) == 1
        out = capsys.readouterr().out
        assert "(cache: 4 hits, 1 misses)" in out
        assert "repro store migrate" in out

        assert main(["store", "migrate", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "converted shard-json: 4 records" in out
        assert "set aside point: 40 records" in out
        assert main(sweep + [str(new)]) == 0
        assert "(cache: 4 hits, 1 misses)" in capsys.readouterr().out


class TestColumnarParity:
    def test_columnar_vs_json_pipeline_identical(self, tmp_path):
        """A sweep's reader and summary equal one direct model call."""
        from repro.core.batch import evaluate_rate_grid

        path = str(tmp_path / "s.sqlite")
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=path,
            shards=4,
        )
        result = run_campaign(campaign, store_path=path)
        assert result.ok
        whole = evaluate_rate_grid(GRID)
        columns = collect_arrays(path, campaign)
        assert np.asarray(columns.values).tolist() == GRID
        assert set(columns.columns) == set(whole)
        for name, column in whole.items():
            assert columns.columns[name].dtype.kind == column.dtype.kind
            assert columns.columns[name].tolist() == column.tolist()
        # The summary folds the float columns only, as numpy would.
        metrics = result.results["sweep/merge"].value["metrics"]
        expected = {}
        for name, column in whole.items():
            if column.dtype.kind != "f":
                continue
            finite = column[np.isfinite(column)]
            expected[name] = {
                "finite": int(finite.size),
                "min": float(finite.min()),
                "max": float(finite.max()),
            }
        assert metrics == expected

    def test_pre_codec_store_reads_after_migrate(self, tmp_path):
        """Per-point shard payloads read only through ``repro store migrate``.

        Un-migrated, both readers refuse them with an error naming the
        command; migrated, they fold into the summary of a fresh sweep
        and decode to its columns bit for bit, and a re-run resolves
        every shard from cache.
        """
        path = fixture_copy(tmp_path, "88cd83f")
        campaign = fixture_campaign(path)
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            merge_shards(**campaign.specs[-1].params_dict())
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            collect_arrays(str(path), campaign)

        migrated = tmp_path / "migrated.sqlite"
        assert migrate_store(path, migrated).converted == 4
        campaign = fixture_campaign(migrated)
        reference_path = str(tmp_path / "new.sqlite")
        reference = run_sharded_sweep(
            "sweep", TARGET_DSPACE, "rate_bps", FIXTURE_GRID,
            store_path=reference_path, shards=4,
        )
        assert reference.ok
        reference_summary = reference.results["sweep/merge"].value
        summary = merge_shards(**campaign.specs[-1].params_dict())
        assert summary == reference_summary
        assert summary["metrics"]["required_buffer_bits"]["finite"] < 40
        assert column_bits(collect_arrays(str(migrated), campaign)) == (
            column_bits(collect_arrays(reference_path, campaign))
        )
        rerun = run_campaign(campaign, store_path=str(migrated))
        assert rerun.status_counts() == {"cached": 4, "ok": 1}
        assert rerun.results["sweep/merge"].value == reference_summary


class TestColumnarCrashResume:
    def test_crashed_columnar_merge_resumes(self, tmp_path, monkeypatch):
        """A merge killed mid-way re-runs without recomputing shards."""
        path = tmp_path / "crash.sqlite"
        full = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(path),
            shards=4,
        )
        shards_only = Campaign("shards", specs=list(full.specs[:-1]))
        assert run_campaign(shards_only, store_path=str(path)).ok
        merge = full.specs[-1]

        store = ResultStore(str(path))
        stored = len(store)
        store.close()

        # Simulated crash: the store dies on the second shard read.
        reads = {"count": 0}
        original = ResultStore.get

        def dying(self, key):
            if reads["count"] >= 1:
                raise OSError("simulated crash mid-merge")
            reads["count"] += 1
            return original(self, key)

        monkeypatch.setattr(ResultStore, "get", dying)
        with pytest.raises(OSError):
            merge_shards(**merge.params_dict())
        monkeypatch.setattr(ResultStore, "get", original)

        # The merge left nothing behind...
        store = ResultStore(str(path))
        assert len(store) == stored
        store.close()

        # ...and the campaign re-run resolves every shard from cache,
        # re-running only the merge.
        resumed = run_campaign(full, store_path=str(path))
        assert resumed.status_counts() == {"cached": 4, "ok": 1}
        summary = resumed.results["sweep/merge"].value
        assert summary["points"] == len(GRID)
        columns = collect_arrays(str(path), full)
        assert columns.values.tolist() == GRID
        assert summary["metrics"]["required_buffer_bits"]["max"] == float(
            np.max(columns.columns["required_buffer_bits"])
        )


class TestLegacyBlockRecords:
    def test_lookup_answers_from_shard_payloads_beside_old_blocks(
        self, tmp_path
    ):
        """Stores merged by older builds also hold columnar block records.

        Those merges re-packed every point into a ``columnar-block``
        record beside the shard payloads.  The readers take the shard
        payloads, so the block changes none of their answers; ``repro
        store migrate`` sets the block aside and copies the rest, and
        the copy serves every shard from cache.
        """
        path = fixture_copy(tmp_path, "56a8e64")
        store = ResultStore(path)
        kinds = [payload_kind(r) for r in store.iter_records()]
        store.close()
        assert kinds.count("columnar-block") == 1
        campaign = fixture_campaign(path)
        reference = tmp_path / "reference.sqlite"
        assert run_sharded_sweep(
            "sweep", TARGET_DSPACE, "rate_bps", FIXTURE_GRID,
            store_path=str(reference), shards=4,
        ).ok
        expected = column_bits(collect_arrays(str(reference), campaign))
        assert column_bits(collect_arrays(str(path), campaign)) == expected

        migrated = tmp_path / "migrated.jsonl"
        report = migrate_store(path, migrated)
        assert report.set_aside == {"columnar-block": 1}
        assert not report.unverified and report.converted == 0
        assert report.copied == len(kinds) - 1
        assert column_bits(collect_arrays(str(migrated), campaign)) == (
            expected
        )
        rerun = run_campaign(
            fixture_campaign(migrated), store_path=str(migrated)
        )
        assert rerun.status_counts() == {"cached": 4, "ok": 1}


class TestNoReferenceCycles:
    def test_walkers_and_a_serial_sweep_leave_no_cyclic_garbage(
        self, tmp_path
    ):
        """Everything the sweep path allocates is freed by refcount.

        A reference cycle that holds a record's blob lives until the
        cyclic collector runs; with the collector off, one serial sweep
        and its read-back must leave it nothing to find.
        """
        record = {
            "key": "k",
            "status": "ok",
            "value": {"blob": b"\x00" * 64, "more": [b"ab", {"x": b"cd"}]},
        }
        grid = {"kind": "geomspace", "start": 32e3, "stop": 4096e3,
                "num": 400}

        def sweep(path):
            run_sharded_sweep(
                "sweep", TARGET_DSPACE, "rate_bps", grid,
                store_path=path, shards=4,
            )
            campaign = sharded_sweep_campaign(
                "sweep", TARGET_DSPACE, "rate_bps", grid,
                store_path=path, shards=4,
            )
            return collect_arrays(path, campaign)

        sweep(str(tmp_path / "warm.sqlite"))  # imports and lazy caches
        gc.collect()
        gc.disable()
        try:
            jsonable, blob = extract_blob(record)
            assert inject_blob(jsonable, blob) == record
            columns = sweep(str(tmp_path / "s.sqlite"))
            assert len(columns.values) == 400
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPayloadKinds:
    def test_store_records_classify(self, tmp_path):
        path = str(tmp_path / "k.sqlite")
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=path,
            shards=2,
        )
        assert run_campaign(campaign, store_path=path).ok
        store = ResultStore(path)
        kinds = {}
        total_bytes = 0
        for record, nbytes in store.iter_records_with_size():
            kind = payload_kind(record)
            kinds[kind] = kinds.get(kind, 0) + 1
            assert nbytes > 0
            total_bytes += nbytes
        store.close()
        # Shard job records carry columnar payloads, so they classify
        # by payload; only the merge job's summary stays plain "job",
        # and the merge writes no block records.
        assert kinds == {"columnar-shard": 2, "job": 1}
        assert total_bytes > 0

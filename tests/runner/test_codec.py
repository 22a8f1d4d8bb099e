"""Columnar codec tests: round-trip parity, backends, migration, resume.

The codec's contract is *bit-exact equivalence* with the per-point
JSON payload: whatever a sweep stores through binary columns must
decode back to the same Python values — same types, same mapping key
order, NaN/inf included — that a per-point payload of the same points
holds.  These tests drive that contract property-based (hypothesis
generates adversarial column mixes), through both persistence
backends, across store migration, through a crash-resumed columnar
merge, and against stores of per-point payloads that older builds
wrote.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runner import (
    Campaign,
    ResultStore,
    collect_arrays,
    collect_points,
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
    pack_points,
    pack_series,
    payload_kind,
    restore_bytes,
    unpack_columns,
    unpack_points,
)
from repro.runner.jobs import STATUS_OK, JobResult, content_key
from repro.runner.provenance import stamp_record
from repro.runner.sharding import merge_shards

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
TARGET_DSPACE = "repro.core.batch:evaluate_rate_grid"

#: A grid whose upper rates are infeasible, so its points carry inf.
LEGACY_GRID = np.geomspace(32e3, 1e8, 42).tolist()


def same_value(a, b) -> bool:
    """Type-exact equality where ``nan == nan`` (the round-trip oracle)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def same_points(left, right, ordered: bool = True) -> bool:
    """Point-list equality oracle.

    ``ordered=True`` (pack/unpack round trips) also requires mapping
    key order to survive; cross-pipeline comparisons pass
    ``ordered=False`` because the JSON path's ``sort_keys`` store
    encoding never preserved key order in the first place.
    """
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, dict) and isinstance(b, dict):
            if ordered and list(a) != list(b):
                return False
            if set(a) != set(b):
                return False
            if not all(same_value(a[k], b[k]) for k in a):
                return False
        elif not same_value(a, b):
            return False
    return True


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
    """(values, points) with 1..4 columns of adversarial type mixes."""
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
    points = [
        {name: series[name][index] for name in names}
        for index in range(count)
    ]
    return values, points


def _model_points(values):
    """``evaluate_rate_grid`` over ``values`` as one dict per point."""
    from repro.core.batch import evaluate_rate_grid

    lists = {
        name: column.tolist()
        for name, column in evaluate_rate_grid(values).items()
    }
    return [
        {name: lists[name][index] for name in lists}
        for index in range(len(values))
    ]


def _legacy_sweep_store(path):
    """A store of LEGACY_GRID's shards as builds before the codec left it.

    Each shard record holds the per-point ``{"parameter", "values",
    "points"}`` payload those builds wrote, under the campaign's own
    content key, and one per-point record of their merge sits beside
    the shards.  No merge of this build has run.  Returns the campaign.
    """
    campaign = sharded_sweep_campaign(
        "sweep", TARGET_DSPACE, "rate_bps", LEGACY_GRID,
        store_path=str(path), shards=4,
    )
    records = []
    for spec in campaign.specs[:-1]:
        values = spec.params_dict()["values"]
        payload = {
            "parameter": "rate_bps",
            "values": values,
            "points": _model_points(values),
        }
        result = JobResult(
            job_id=spec.job_id, key=spec.key, status=STATUS_OK,
            value=payload,
        )
        records.append(stamp_record(result.to_record(spec)))
    records.append({
        "key": content_key(
            "point", TARGET_DSPACE, {"rate_bps": LEGACY_GRID[0]}
        ),
        "job_id": f"sweep[{LEGACY_GRID[0]}]",
        "status": "ok",
        "value": _model_points(LEGACY_GRID[:1])[0],
    })
    store = ResultStore(path)
    try:
        store.append_many(records)
    finally:
        store.close()
    return campaign


class TestRoundTrip:
    @given(mapping_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_mapping_points_bit_exact(self, sweep):
        values, points = sweep
        payload = pack_points(values, points)
        assert payload is not None and is_columnar(payload)
        out_values, out_points = unpack_points(payload)
        assert same_points(values, out_values)
        assert same_points(points, out_points)

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
        payload = pack_points(values, points)
        assert payload is not None
        out_values, out_points = unpack_points(payload)
        assert same_points(values, out_values)
        assert same_points(points, out_points)

    def test_nan_inf_native(self):
        values = [1.0, 2.0, 3.0]
        points = [
            {"m": math.nan},
            {"m": math.inf},
            {"m": -math.inf},
        ]
        payload = pack_points(values, points)
        # All-float column: packed binary, not the JSON fallback.
        assert payload["columns"][0]["dtype"] == "<f8"
        _, out = unpack_points(payload)
        assert math.isnan(out[0]["m"])
        assert out[1]["m"] == math.inf
        assert out[2]["m"] == -math.inf

    def test_ragged_mappings_refuse_to_columnise(self):
        assert pack_points([1.0, 2.0], [{"a": 1}, {"b": 2}]) is None
        assert pack_points([1.0, 2.0], [{"a": 1}, 3.0]) is None
        assert pack_points([1.0], [[1, 2]]) is None

    def test_unknown_storage_format_fails_loudly(self):
        payload = pack_points([1.0], [2.0])
        payload["format"] = STORAGE_FORMAT + 1
        with pytest.raises(ConfigurationError):
            is_columnar(payload)

    def test_arrays_decode_without_point_objects(self):
        values = [1.0, 2.0, 4.0]
        points = [{"m": 0.5, "n": 2}, {"m": 1.5, "n": 3}, {"m": 2.5, "n": 4}]
        payload = pack_points(values, points)
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
        values, points = sweep
        payload = pack_points(values, points)
        path = tmp_path_factory.mktemp("codec") / f"s.{backend}"
        store = ResultStore(path, backend=backend)
        store.append({"key": "k", "status": "ok", "value": payload})
        stored = store.get("k")
        store.close()
        assert stored["value"]["blob"] == payload["blob"]
        out_values, out_points = unpack_points(stored["value"])
        assert same_points(values, out_values)
        assert same_points(points, out_points)


class TestMigration:
    def _sweep_store(self, path, backend=None):
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(path),
            shards=4,
        )
        result = run_campaign(
            campaign, store_path=str(path), store_backend=backend
        )
        assert result.ok
        return campaign

    def test_migrate_across_payload_kinds_both_directions(self, tmp_path):
        """Columnar payloads survive JSONL -> SQLite -> JSONL verbatim."""
        jsonl_path = tmp_path / "a.jsonl"
        campaign = self._sweep_store(jsonl_path, backend="jsonl")
        sqlite_path = tmp_path / "b.sqlite"
        migrated = migrate_store(jsonl_path, sqlite_path)
        back_path = tmp_path / "c.jsonl"
        migrate_store(sqlite_path, back_path, dst_backend="jsonl")

        source = ResultStore(jsonl_path).load()
        via = ResultStore(sqlite_path).load()
        back = ResultStore(back_path).load()
        assert len(source) == migrated
        assert source == via == back  # bytes payloads included

        # The migrated store answers sweep queries as its source does.
        values, points = collect_points(str(sqlite_path), campaign)
        assert values == GRID
        assert (values, points) == collect_points(str(jsonl_path), campaign)
        arrays = collect_arrays(str(sqlite_path), campaign)
        assert arrays.columns["dominant"].tolist() == [
            p["dominant"] for p in points
        ]

    def test_mixed_payload_kind_store_migrates(self, tmp_path):
        """Legacy per-point and columnar payloads coexist and migrate."""
        path = tmp_path / "mixed.sqlite"
        legacy = _legacy_sweep_store(path)
        self._sweep_store(path)  # columnar payloads of another grid
        resumed = run_campaign(legacy, store_path=str(path))
        assert resumed.status_counts() == {"cached": 4, "ok": 1}
        store = ResultStore(path)
        kinds = {payload_kind(record) for record in store.iter_records()}
        store.close()
        assert kinds == {"shard-json", "point", "columnar-shard", "job"}
        dst = tmp_path / "mixed.jsonl"
        migrated = migrate_store(path, dst, dst_backend="jsonl")
        assert migrated == len(ResultStore(path).load())
        assert ResultStore(dst).load() == ResultStore(path).load()
        assert collect_points(str(dst), legacy) == collect_points(
            str(path), legacy
        )


class TestColumnarParity:
    def test_columnar_vs_json_pipeline_identical(self, tmp_path):
        """A sweep's readers and summary equal one direct model call."""
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
        values, points = collect_points(path, campaign)
        assert same_points(values, GRID)
        assert same_points(points, _model_points(GRID))
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

    def test_pre_codec_store_still_reads_and_merges(self, tmp_path):
        """A store of per-point shard payloads answers like a new one."""
        path = str(tmp_path / "old.sqlite")
        campaign = _legacy_sweep_store(path)
        reference_path = str(tmp_path / "new.sqlite")
        reference = run_sharded_sweep(
            "sweep", TARGET_DSPACE, "rate_bps", LEGACY_GRID,
            store_path=reference_path, shards=4,
        )
        assert reference.ok
        reference_summary = reference.results["sweep/merge"].value

        # A current build folds those legacy payloads into the same
        # summary without writing a record...
        store = ResultStore(path)
        stored = len(store)
        store.close()
        summary = merge_shards(**campaign.specs[-1].params_dict())
        assert summary == reference_summary
        assert summary["metrics"]["required_buffer_bits"]["finite"] < len(
            LEGACY_GRID
        )  # the infinite points are counted out
        store = ResultStore(path)
        assert len(store) == stored
        store.close()

        # ...both readers answer as for the columnar store...
        values, points = collect_points(path, campaign)
        ref_values, ref_points = collect_points(reference_path, campaign)
        assert same_points(values, ref_values)
        assert same_points(points, ref_points, ordered=False)
        arrays = collect_arrays(path, campaign)
        ref_arrays = collect_arrays(reference_path, campaign)
        assert np.array_equal(arrays.values, ref_arrays.values)
        assert arrays.points_kind == ref_arrays.points_kind
        assert set(arrays.columns) == set(ref_arrays.columns)
        for name, column in ref_arrays.columns.items():
            assert arrays.columns[name].dtype == column.dtype
            assert arrays.columns[name].tolist() == column.tolist()

        # ...and a re-run resolves every shard from cache.
        rerun = run_campaign(campaign, store_path=path)
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
        values, points = collect_points(str(path), full)
        assert values == GRID
        assert collect_arrays(str(path), full).columns[
            "required_buffer_bits"
        ].tolist() == [p["required_buffer_bits"] for p in points]


class TestLegacyBlockRecords:
    def test_lookup_answers_from_shard_payloads_beside_old_blocks(
        self, tmp_path
    ):
        """Stores merged by older builds also hold columnar block records.

        Those merges re-packed every point into ``point-block`` records
        beside the shard payloads.  The readers take the shard payloads,
        which every sweep store holds, so an old block changes none of
        their answers; the block still classifies.
        """
        path = str(tmp_path / "old.sqlite")
        campaign = sharded_sweep_campaign(
            "sweep", TARGET_DSPACE, "rate_bps", GRID,
            store_path=path, shards=4,
        )
        assert run_campaign(campaign, store_path=path).ok
        points = collect_points(path, campaign)
        columns = collect_arrays(path, campaign)
        block = pack_series(columns.values, columns.columns)
        block["block"] = 0
        shard_keys = [spec.key for spec in campaign.specs[:-1]]
        store = ResultStore(path)
        try:
            store.append({
                "key": content_key("point-block", TARGET_DSPACE, {
                    "parameter": "rate_bps", "common": {},
                    "shards": shard_keys, "block": 0,
                }),
                "job_id": "sweep/block00000",
                "status": "ok",
                "value": block,
            })
            kinds = [payload_kind(r) for r in store.iter_records()]
        finally:
            store.close()
        assert kinds.count("columnar-block") == 1
        assert collect_points(path, campaign) == points
        after = collect_arrays(path, campaign)
        assert after.points_kind == columns.points_kind
        assert np.array_equal(after.values, columns.values)
        for name, column in columns.columns.items():
            assert np.array_equal(after.columns[name], column)


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

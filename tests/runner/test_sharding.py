"""Sharded-sweep tests: splitting, merging, resumability, cache seeding."""

from __future__ import annotations

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
    grid_descriptor,
    lookup_point,
    run_campaign,
    run_sharded_sweep,
    shard_grid,
    sharded_sweep_campaign,
)
from repro.runner.codec import is_columnar, unpack_points
from repro.runner.sharding import evaluate_shard, point_key


def _payload_points(payload):
    """(values, points) of a shard payload in either codec."""
    if is_columnar(payload):
        return unpack_points(payload)
    return payload["values"], payload["points"]

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
TARGET_SCALAR = "runner_workers:break_even_kb"
TARGET_BATCH = "repro.core.batch:break_even_curve"
TARGET_DSPACE = "repro.core.batch:evaluate_rate_grid"


class TestShardGrid:
    def test_contiguous_partition(self):
        chunks = shard_grid(GRID, 7)
        assert [v for chunk in chunks for v in chunk] == GRID
        sizes = {len(chunk) for chunk in chunks}
        assert len(chunks) == 7
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_points(self):
        chunks = shard_grid([1, 2], 8)
        assert chunks == [[1], [2]]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            shard_grid(GRID, 0)
        with pytest.raises(ConfigurationError):
            shard_grid([], 4)

    @pytest.mark.parametrize("kind", ["linspace", "geomspace"])
    @pytest.mark.parametrize(
        "start, stop",
        [(math.nan, 1e6), (1e3, math.inf), (1e3, math.nan)],
        ids=["nan-start", "inf-stop", "nan-stop"],
    )
    def test_descriptor_rejects_non_finite_bounds(self, kind, start, stop):
        with pytest.raises(ConfigurationError, match="finite"):
            grid_descriptor(kind, start, stop, 10)

    @given(
        st.lists(st.integers(), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, values, shards):
        chunks = shard_grid(values, shards)
        assert [v for chunk in chunks for v in chunk] == values
        assert all(chunks)
        assert len(chunks) == min(shards, len(values))
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1


class TestEvaluateShard:
    @pytest.mark.parametrize("codec", ["columnar", "json"])
    def test_scalar_and_batch_targets_agree(self, codec):
        scalar = evaluate_shard(
            TARGET_SCALAR, "rate_bps", GRID[:5], batch=False, codec=codec
        )
        batch = evaluate_shard(
            TARGET_BATCH, "rate_bps", GRID[:5], batch=True, codec=codec
        )
        assert is_columnar(batch) == (codec == "columnar")
        scalar_values, scalar_points = _payload_points(scalar)
        batch_values, batch_points = _payload_points(batch)
        assert scalar_values == batch_values == GRID[:5]
        # break_even_curve reports bits, break_even_kb kilobytes.
        scaled = [p["break_even_bits"] / 8000.0 for p in batch_points]
        assert scaled == pytest.approx(scalar_points, rel=1e-12)

    def test_codec_paths_bit_identical(self):
        columnar = evaluate_shard(
            TARGET_DSPACE, "rate_bps", GRID[:7], codec="columnar"
        )
        legacy = evaluate_shard(
            TARGET_DSPACE, "rate_bps", GRID[:7], codec="json"
        )
        assert is_columnar(columnar) and not is_columnar(legacy)
        assert _payload_points(columnar) == (
            legacy["values"], legacy["points"]
        )

    def test_batch_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_shard("runner_workers:drop_last", "values", [1, 2, 3])

    def test_ndarray_series_pack_binary(self):
        """Targets returning raw numpy arrays hit the binary columns.

        Listifying an ndarray would yield numpy scalars — json-fallback
        text for floats, repr garbage for ints — so array columns must
        pack via their dtype and decode back to exact Python scalars.
        """
        payload = evaluate_shard(
            "runner_workers:array_curve", "values", [1.0, 2.0, 3.0],
            codec="columnar",
        )
        dtypes = {
            column["name"]: column["dtype"]
            for column in payload["columns"]
        }
        assert dtypes == {"double": "<f8", "index": "<i8"}
        _, points = _payload_points(payload)
        assert points == [
            {"double": 2.0, "index": 0},
            {"double": 4.0, "index": 1},
            {"double": 6.0, "index": 2},
        ]
        assert all(type(p["index"]) is int for p in points)
        # The legacy codec degrades arrays to plain Python scalars too.
        legacy = evaluate_shard(
            "runner_workers:array_curve", "values", [1.0, 2.0],
            codec="json",
        )
        assert legacy["points"] == [
            {"double": 2.0, "index": 0},
            {"double": 4.0, "index": 1},
        ]
        assert all(type(p["index"]) is int for p in legacy["points"])

    def test_single_array_target_packs_one_binary_column(self, tmp_path):
        """A target returning one array stores one ``<f8`` scalar column.

        Listing the array gave numpy scalars, which the codec's exact
        type scan sent to an inline JSON column.
        """
        grid = [0.1 * step for step in range(1, 41)]
        payload = evaluate_shard(
            "runner_workers:doubled", "values", grid[:3], codec="columnar"
        )
        assert payload["points_kind"] == "scalar"
        assert [(c["name"], c["dtype"]) for c in payload["columns"]] == [
            ("value", "<f8")
        ]
        store_path = str(tmp_path / "s.sqlite")
        sweep = ("doubled", "runner_workers:doubled", "values", grid)
        assert run_sharded_sweep(*sweep, store_path=store_path, shards=3).ok
        campaign = sharded_sweep_campaign(
            *sweep, store_path=store_path, shards=3
        )
        expected = [value * 2.0 for value in grid]
        values, points = collect_points(store_path, campaign)
        assert values == grid and points == expected
        assert all(type(point) is float for point in points)
        columns = collect_arrays(store_path, campaign)
        assert columns.points_kind == "scalar"
        assert columns.columns["value"].dtype == np.float64
        assert columns.columns["value"].tolist() == expected

    def test_single_array_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_shard(
                "runner_workers:doubled_short", "values", [1.0, 2.0, 3.0]
            )

    def test_array_target_packs_like_its_old_lists(self):
        """Packing the model's columns gives the bytes its lists gave.

        evaluate_rate_grid used to return lists, which the codec
        scanned back into columns.  On a rising multi-label grid every
        shard's blob and column descriptors are what those lists packed
        to: str columns keep their sorted categories, and rising rates
        meet the Figure 3 labels in sorted order.
        """
        from repro.core.batch import evaluate_rate_grid
        from repro.runner.codec import pack_series
        from repro.runner.sharding import shard_values

        grid = {"kind": "geomspace", "start": 32e3, "stop": 4096e3,
                "num": 4000}
        labels = set()
        for index in range(8):
            payload = evaluate_shard(
                TARGET_DSPACE, "rate_bps", grid=grid,
                shard_index=index, shard_count=8,
            )
            values = shard_values(grid, index, 8).tolist()
            lists = {
                name: column.tolist()
                for name, column in evaluate_rate_grid(values).items()
            }
            assert payload == {
                "parameter": "rate_bps", **pack_series(values, lists)
            }
            labels.update(lists["dominant"])
        assert labels == {"C", "E", "X"}

    def test_per_point_infeasibility_is_inf(self):
        result = evaluate_shard(
            "runner_workers:infeasible_above_two", "x", [1, 2, 3], batch=False
        )
        _, points = _payload_points(result)
        assert points == [1.0, 2.0, math.inf]

    def test_values_or_grid_exactly_one(self):
        with pytest.raises(ConfigurationError):
            evaluate_shard(TARGET_BATCH, "rate_bps")
        with pytest.raises(ConfigurationError):
            evaluate_shard(
                TARGET_BATCH,
                "rate_bps",
                GRID[:2],
                grid={"kind": "linspace", "start": 1, "stop": 2, "num": 2},
                shard_index=0,
                shard_count=1,
            )


class TestShardedSweepCampaign:
    def _campaign(self, store_path, shards=4, **kwargs):
        return sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(store_path),
            shards=shards,
            **kwargs,
        )

    def test_shard_jobs_plus_merge(self, tmp_path):
        campaign = self._campaign(tmp_path / "s.sqlite")
        assert len(campaign.specs) == 5
        merge = campaign.specs[-1]
        assert merge.after == tuple(
            spec.job_id for spec in campaign.specs[:-1]
        )

    def test_merge_and_collect_match_monolithic(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        result = run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(store_path),
            shards=4,
        )
        assert result.ok
        summary = result.results["sweep/merge"].value
        assert summary["points"] == len(GRID)
        assert summary["shards"] == 4
        # The columnar merge writes nothing: the shard payloads are the
        # one stored copy of the points.
        assert summary["point_records"] == 0
        assert "block_records" not in summary
        assert summary["metrics"]["required_buffer_bits"]["finite"] > 0

        campaign = self._campaign(store_path)
        values, points = collect_points(str(store_path), campaign)
        assert values == GRID
        # Identical to one unsharded batch evaluation of the grid.
        from repro.core.batch import evaluate_rate_grid

        whole = evaluate_rate_grid(GRID)
        assert [p["required_buffer_bits"] for p in points] == whole[
            "required_buffer_bits"
        ].tolist()
        assert [p["dominant"] for p in points] == whole["dominant"].tolist()

    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        store_path = str(tmp_path / "s.sqlite")
        full = self._campaign(store_path)
        # "Interrupt": only the first two shards complete.
        partial = Campaign("sweep-partial", specs=list(full.specs[:2]))
        first = run_campaign(partial, store_path=store_path)
        assert first.status_counts() == {"ok": 2}

        resumed = run_campaign(full, store_path=store_path)
        counts = resumed.status_counts()
        assert counts == {"cached": 2, "ok": 3}
        assert resumed.results["sweep/merge"].value["points"] == len(GRID)

        # And an unchanged re-run is pure cache hits.
        rerun = run_campaign(full, store_path=store_path)
        assert rerun.status_counts() == {"cached": 5}

    def test_grid_edit_recomputes_only_changed_shards(self, tmp_path):
        store_path = str(tmp_path / "s.jsonl")
        run_campaign(self._campaign(store_path), store_path=store_path)
        edited = GRID[:-1] + [GRID[-1] + 1.0]  # touch the last shard only
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            edited,
            store_path=store_path,
            shards=4,
        )
        result = run_campaign(campaign, store_path=store_path)
        counts = result.status_counts()
        assert counts["cached"] == 3  # untouched shards
        assert counts["ok"] == 2  # edited shard + merge

    def test_points_queryable_from_shard_payloads(self, tmp_path):
        store_path = str(tmp_path / "s.sqlite")
        run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=store_path,
            shards=4,
        )
        campaign = self._campaign(store_path)
        # Any grid point decodes from its shard's payload in a handful
        # of indexed lookups; values off the grid return None.
        point = lookup_point(store_path, campaign, GRID[7])
        assert point is not None
        assert point["dominant"] in ("E", "C", "Lsp", "Lpb", "lat")
        _, points = collect_points(store_path, campaign)
        assert point == points[7]
        assert lookup_point(store_path, campaign, -1.0) is None
        # Shard records never masquerade as cache entries for a real
        # single-point job: that job sees a scalar argument and shapes
        # its output as length-1 series, so it must execute fresh.
        single = Campaign("one-point").call(
            "pt", TARGET_DSPACE, rate_bps=GRID[7]
        )
        result = run_campaign(single, store_path=store_path)
        assert result.status_counts() == {"ok": 1}
        fresh = result.results["pt"].value
        assert fresh["dominant"].tolist() == [point["dominant"]]
        assert fresh["required_buffer_bits"].tolist() == [
            point["required_buffer_bits"]
        ]

    def test_point_records_queryable_with_json_codec(self, tmp_path):
        """codec="json" keeps the legacy per-point query surface."""
        store_path = str(tmp_path / "s.sqlite")
        run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=store_path,
            shards=4,
            codec="json",
        )
        store = ResultStore(store_path)
        record = store.get(point_key(TARGET_DSPACE, "rate_bps", GRID[7]))
        store.close()
        assert record is not None
        assert record["value"]["dominant"] in ("E", "C", "Lsp", "Lpb", "lat")
        # lookup_point reads the json-codec shard payloads alike.
        campaign = self._campaign(store_path, codec="json")
        assert lookup_point(store_path, campaign, GRID[7]) == record["value"]

    def test_grid_materialised_once_per_process(self):
        """Shards slice one read-only grid array, as shard_grid would."""
        import numpy as np

        from repro.runner.sharding import materialise_grid, shard_values

        grid = {"kind": "geomspace", "start": 32e3, "stop": 4096e3,
                "num": 1001}
        full = materialise_grid(grid)
        assert materialise_grid(dict(grid)) is full
        assert not full.flags.writeable
        explicit = np.geomspace(32e3, 4096e3, 1001).tolist()
        for index, chunk in enumerate(shard_grid(explicit, 7)):
            part = shard_values(grid, index, 7)
            assert not part.flags.writeable
            assert part.tobytes() == np.asarray(chunk).tobytes()
        # The memo keys on the ends' bits: -0.0 and 0.0 are two grids.
        signs = [
            math.copysign(1.0, materialise_grid(
                {"kind": "linspace", "start": -1.0, "stop": stop, "num": 3}
            )[-1])
            for stop in (-0.0, 0.0)
        ]
        assert signs == [-1.0, 1.0]

    def test_grid_descriptor_matches_explicit_values(self, tmp_path):
        """Descriptor sweeps ship O(1) job params, same values exactly."""
        import numpy as np

        descriptor = {
            "kind": "geomspace",
            "start": 32_000.0,
            "stop": 4_096_000.0,
            "num": 41,
        }
        explicit = [float(v) for v in np.geomspace(32_000.0, 4_096_000.0, 41)]
        by_grid = run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            descriptor,
            store_path=str(tmp_path / "grid.sqlite"),
            shards=4,
        )
        by_list = run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            explicit,
            store_path=str(tmp_path / "list.sqlite"),
            shards=4,
        )
        assert by_grid.ok and by_list.ok
        assert (
            by_grid.results["sweep/merge"].value
            == by_list.results["sweep/merge"].value
        )
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            descriptor,
            store_path=str(tmp_path / "grid.sqlite"),
            shards=4,
        )
        values, _ = collect_points(str(tmp_path / "grid.sqlite"), campaign)
        assert values == explicit
        # Shard jobs carry the descriptor, never the value list.
        for spec in campaign.specs[:-1]:
            params = spec.params_dict()
            assert "values" not in params
            assert params["grid"] == descriptor

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(tmp_path / "serial.sqlite"),
            shards=4,
        )
        parallel = run_sharded_sweep(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(tmp_path / "parallel.sqlite"),
            shards=4,
            jobs=4,
        )
        assert parallel.ok
        assert (
            parallel.results["sweep/merge"].value
            == serial.results["sweep/merge"].value
        )

    def test_merge_without_shard_record_fails_loudly(self, tmp_path):
        from repro.runner.sharding import merge_shards

        with pytest.raises(ConfigurationError):
            merge_shards(
                store_path=str(tmp_path / "empty.jsonl"),
                shard_keys=["deadbeef"],
                sweep_target=TARGET_DSPACE,
                parameter="rate_bps",
                prefix="sweep",
            )

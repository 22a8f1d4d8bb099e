"""Batch-evaluation benchmarks: vectorised core, sharded sweeps, codec.

Claims under timing:

* the batch path (``BufferDimensioner.require_batch``) evaluates a
  >=10k-point rate grid at least 10x faster than the per-point scalar
  path, while agreeing bit for bit,
* ``energy_wall_rate_batch`` bisects a 1k-goal sweep's boundaries as
  one array at least 5x faster than the scalar per-goal bisection,
  matching it within bisection tolerance,
* a sharded sweep (``REPRO_BENCH_SWEEP_N`` points, default 1M; CI runs
  a reduced grid) streams through the result store resumably:
  re-running after an interrupt resolves completed shards from cache
  and computes only the remainder,
* the **columnar binary codec** runs the same end-to-end
  sweep -> merge -> collect pipeline at least 5x faster than the
  JSON-dict path and leaves the store at least 4x smaller on disk
  (observed ~30x / ~13x at 50k points, wider at 1M),
* the streaming merge's peak tracked allocation stays O(chunk): under
  25% of the fully decoded point list (tracemalloc-asserted),
* the chunked saw-tooth peak search
  (``SectorLayout.best_user_bits_at_most_batch``) keeps its peak
  tracked allocation under 25% of the unchunked candidate-matrix
  estimate.

Run with ``--benchmark-json=BENCH_batch.json`` to emit the JSON
artifact CI uploads and compares against the committed
``BENCH_batch.json`` baseline (``scripts/check_bench.py``).
"""

from __future__ import annotations

import glob
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.config import DesignGoal
from repro.core.design_space import DesignSpaceExplorer
from repro.core.dimensioning import BufferDimensioner
from repro.formatting.ecc import FractionalECC
from repro.formatting.sector import SectorLayout
from repro.runner import (
    ResultStore,
    collect_arrays,
    collect_points,
    run_campaign,
    sharded_sweep_campaign,
)
from repro.runner.campaign import Campaign
from repro.runner.sharding import merge_shards

from conftest import run_once, run_once_slow

#: Rate-grid size for the batch-vs-scalar speedup assertion (>=10k by
#: the acceptance criteria; raising it only widens the measured gap).
BATCH_N = max(int(os.environ.get("REPRO_BENCH_BATCH_N", "10000")), 10_000)

#: Grid size for the sharded-sweep benchmark.  Defaults to the ROADMAP's
#: million-point scan; CI reduces it via the environment.
SWEEP_N = int(os.environ.get("REPRO_BENCH_SWEEP_N", "1000000"))

#: Shard count for the sharded-sweep benchmark.
SHARDS = int(os.environ.get("REPRO_BENCH_SWEEP_SHARDS", "8"))

RATE_MIN, RATE_MAX = 32_000.0, 4_096_000.0
DSPACE_TARGET = "repro.core.batch:evaluate_rate_grid"


@pytest.mark.benchmark(group="batch")
def test_batch_requirement_10x_over_scalar(benchmark, device, workload):
    """require_batch beats the per-point loop >=10x on a >=10k grid."""
    dimensioner = BufferDimensioner(device, workload)
    goal = DesignGoal()
    grid = np.geomspace(RATE_MIN, RATE_MAX, BATCH_N)

    start = time.perf_counter()
    scalar = np.array(
        [
            dimensioner.dimension(goal, float(rate)).required_buffer_bits
            for rate in grid
        ]
    )
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = dimensioner.require_batch(goal, grid)
    required = batch.required_buffer_bits
    batch_s = time.perf_counter() - start
    # Timed again under pytest-benchmark for the JSON artifact.
    run_once(benchmark, dimensioner.require_batch, goal, grid)

    assert np.array_equal(required, scalar), "batch result drifted"
    print()
    print(
        f"{BATCH_N} points: scalar {scalar_s:.3f}s, batch {batch_s:.4f}s "
        f"(x{scalar_s / batch_s:.0f})"
    )
    assert batch_s * 10 <= scalar_s, (
        f"batch path only x{scalar_s / batch_s:.1f} over scalar"
    )


#: Goal-grid size for the vectorised wall-bisection assertion.
WALL_N = max(int(os.environ.get("REPRO_BENCH_WALL_N", "1000")), 1_000)


@pytest.mark.benchmark(group="batch")
def test_energy_wall_batch_5x_over_scalar(benchmark, device, workload):
    """energy_wall_rate_batch beats per-goal bisection >=5x on 1k goals.

    The goal grid sits strictly inside the bisection band (between the
    saving reachable at the top and bottom of the rate range), so every
    lane actually bisects — the honest comparison; goals outside the
    band early-exit on both paths.
    """
    explorer = DesignSpaceExplorer(device, workload)
    energy = explorer.dimensioner.solver.energy
    lo = energy.max_energy_saving(workload.stream_rate_max_bps)
    hi = energy.max_energy_saving(workload.stream_rate_min_bps)
    goals = np.linspace(lo + 1e-6, hi - 1e-6, WALL_N)

    start = time.perf_counter()
    scalar = np.array(
        [
            explorer.energy_wall_rate(DesignGoal(energy_saving=float(g)))
            for g in goals
        ]
    )
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = explorer.energy_wall_rate_batch(goals)
    batch_s = time.perf_counter() - start
    run_once(benchmark, explorer.energy_wall_rate_batch, goals)

    assert np.allclose(batch, scalar, rtol=1e-9), "wall boundaries drifted"
    print()
    print(
        f"{WALL_N} goal boundaries: scalar {scalar_s:.3f}s, "
        f"batch {batch_s:.4f}s (x{scalar_s / batch_s:.0f})"
    )
    assert batch_s * 5 <= scalar_s, (
        f"wall batch only x{scalar_s / batch_s:.1f} over scalar"
    )


def _sweep_campaign(store_path, n=None, shards=None, **kwargs):
    # A grid descriptor, not a value list: shard jobs ship four
    # scalars and materialise their own slice in the worker.
    grid = {
        "kind": "geomspace",
        "start": RATE_MIN,
        "stop": RATE_MAX,
        "num": n or SWEEP_N,
    }
    return sharded_sweep_campaign(
        "dspace",
        DSPACE_TARGET,
        "rate_bps",
        grid,
        store_path=str(store_path),
        shards=shards or SHARDS,
        **kwargs,
    )


@pytest.mark.benchmark(group="shard")
def test_sharded_sweep_streams_and_resumes(benchmark, tmp_path):
    """An interrupted sharded sweep resumes from per-shard cache.

    The first run completes only half the shards ("the interrupt");
    the timed resume must resolve those from cache, compute the rest,
    and merge without writing: the shard payloads are the one stored
    copy of the points.
    """
    store_path = str(tmp_path / "sweep.sqlite")
    full = _sweep_campaign(store_path)
    half = SHARDS // 2
    interrupted = Campaign("dspace-interrupted", specs=list(full.specs[:half]))

    start = time.perf_counter()
    first = run_campaign(interrupted, store_path=store_path)
    first_s = time.perf_counter() - start
    assert first.ok

    resumed = run_once_slow(
        benchmark, run_campaign, full, store_path=store_path
    )
    counts = resumed.status_counts()
    assert counts == {"cached": half, "ok": SHARDS - half + 1}, counts
    summary = resumed.results["dspace/merge"].value
    assert summary["points"] == SWEEP_N
    assert summary["point_records"] == 0

    store = ResultStore(store_path)
    stored = len(store)
    store.close()
    # One record per shard payload, plus the merge job's summary.
    assert stored == SHARDS + 1

    print()
    print(
        f"{SWEEP_N} points over {SHARDS} shards: half-run {first_s:.2f}s, "
        f"resume {resumed.duration_s:.2f}s "
        f"({SWEEP_N / max(resumed.duration_s, 1e-9):,.0f} points/s); "
        f"{stored} store records"
    )

    # An unchanged re-run is pure cache hits — and fast.
    start = time.perf_counter()
    rerun = run_campaign(full, store_path=store_path)
    rerun_s = time.perf_counter() - start
    assert rerun.status_counts() == {"cached": SHARDS + 1}
    print(f"cached re-run {rerun_s:.2f}s")


#: Grid size for the end-to-end codec comparison: the full sweep grid,
#: capped locally so the deliberately slow JSON-dict control run stays
#: tolerable under the default million-point grid.
CODEC_N = min(SWEEP_N, 200_000)


@pytest.mark.benchmark(group="codec")
def test_columnar_pipeline_5x_faster_4x_smaller(benchmark, tmp_path):
    """The columnar codec beats the JSON-dict pipeline end to end.

    Same grid, same shards, both codecs: sweep -> merge -> collect.
    The columnar path must finish the whole pipeline at least 5x
    faster and leave the store at least 4x smaller on disk (shard
    payloads as binary column blobs and no merged copy, against one
    JSON record per point).  Observed at 50k points: ~30x wall time,
    ~13x disk.
    """

    def pipeline(codec, store_path):
        campaign = _sweep_campaign(store_path, n=CODEC_N, codec=codec)
        start = time.perf_counter()
        result = run_campaign(
            campaign, store_path=store_path, cache_preload="specs"
        )
        assert result.ok
        if codec == "columnar":
            columns = collect_arrays(store_path, campaign)
            count = len(columns.values)
        else:
            _, points = collect_points(store_path, campaign)
            count = len(points)
        elapsed = time.perf_counter() - start
        assert count == CODEC_N
        # WAL/journal siblings included, in case the close did not
        # checkpoint everything back into the main file yet.
        size = sum(
            os.path.getsize(p) for p in glob.glob(store_path + "*")
        )
        return elapsed, size

    json_s, json_bytes = pipeline("json", str(tmp_path / "json.sqlite"))
    columnar_s, columnar_bytes = run_once_slow(
        benchmark, pipeline, "columnar", str(tmp_path / "columnar.sqlite")
    )

    print()
    print(
        f"{CODEC_N} points end-to-end: json {json_s:.2f}s "
        f"{json_bytes / 1e6:.1f} MB, columnar {columnar_s:.2f}s "
        f"{columnar_bytes / 1e6:.1f} MB "
        f"(x{json_s / columnar_s:.0f} faster, "
        f"x{json_bytes / columnar_bytes:.1f} smaller)"
    )
    assert columnar_s * 5 <= json_s, (
        f"columnar pipeline only x{json_s / columnar_s:.1f} over JSON"
    )
    assert columnar_bytes * 4 <= json_bytes, (
        f"columnar store only x{json_bytes / columnar_bytes:.1f} smaller"
    )


#: Grid size for the merge-memory assertion: the CI-reduced sweep as-is,
#: capped locally so tracemalloc (which roughly doubles allocation cost)
#: stays tolerable under the default million-point grid.
MEM_N = min(SWEEP_N, 200_000)


@pytest.mark.benchmark(group="shard")
def test_streaming_merge_memory_bounded(benchmark, tmp_path):
    """The streaming merge's peak tracked allocation stays O(chunk).

    Baseline: decoding the full per-point list (what the pre-streaming
    merge materialised).  The merge itself must peak below 25% of that
    — it only ever holds one decoded shard payload — and a subsequent
    campaign run still resolves every shard from cache (the merge never
    poisons resume).
    """
    store_path = str(tmp_path / "memory.sqlite")
    mem_shards = max(SHARDS, 16)
    full = _sweep_campaign(store_path, n=MEM_N, shards=mem_shards)
    shards_only = Campaign("dspace-shards", specs=list(full.specs[:-1]))
    assert run_campaign(shards_only, store_path=store_path).ok

    merge = full.specs[-1]

    tracemalloc.start()
    values, points = collect_points(store_path, full)
    full_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(points) == MEM_N
    del values, points

    peaks = {}

    def traced_merge():
        tracemalloc.start()
        try:
            summary = merge_shards(**merge.params_dict())
            peaks["merge"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return summary

    summary = run_once_slow(benchmark, traced_merge)
    assert summary["points"] == MEM_N
    assert summary["point_records"] == 0

    ratio = peaks["merge"] / full_peak
    print()
    print(
        f"{MEM_N} points over {mem_shards} shards: full decode peaks at "
        f"{full_peak / 1e6:.1f} MB, streaming merge at "
        f"{peaks['merge'] / 1e6:.1f} MB ({ratio:.0%})"
    )
    assert ratio < 0.25, (
        f"merge peak {ratio:.0%} of the decoded point list (O(chunk) "
        f"regression)"
    )

    # Interrupted merges still resume from per-shard cache: the shard
    # jobs resolve cached, only the merge re-executes.
    resumed = run_campaign(full, store_path=store_path)
    assert resumed.status_counts() == {"cached": mem_shards, "ok": 1}


@pytest.mark.benchmark(group="batch")
def test_sawtooth_adaptive_chunk_memory_bounded(benchmark):
    """The chunked saw-tooth peak search keeps peak memory O(chunk).

    Baseline: the candidate-matrix temporaries an unchunked pass would
    materialise (``n x 66`` int64 matrices for candidates, sector
    sizes, utilisation, and the search scratch).
    ``SectorLayout.best_user_bits_at_most_batch`` must peak below 25%
    of that estimate on 200k caps, about 12 of its 15,887-row chunks.
    """
    # Table I stripe with sync overhead and the paper's 1/8 ECC: the
    # fig2a hot path's shape.
    layout = SectorLayout(1024, 16, FractionalECC(1, 8))
    n = 200_000
    caps = np.linspace(10_000, 50_000_000, n).astype(np.int64)
    full_estimate = n * 66 * 8 * 4

    peaks = {}

    def traced():
        tracemalloc.start()
        try:
            out = layout.best_user_bits_at_most_batch(caps)
            peaks["chunked"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    out = run_once_slow(benchmark, traced)
    assert out.shape == caps.shape

    ratio = peaks["chunked"] / full_estimate
    print()
    print(
        f"{n} rows: peak {peaks['chunked'] / 1e6:.1f} MB "
        f"vs {full_estimate / 1e6:.1f} MB unchunked estimate ({ratio:.0%})"
    )
    assert ratio < 0.25, (
        f"chunked saw-tooth peaked at {ratio:.0%} of the unchunked "
        f"estimate (O(chunk) regression)"
    )

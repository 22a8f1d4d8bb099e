"""Campaign-engine benchmarks: speedup, cache re-runs, store scaling.

Claims under timing:

* a registry-wide campaign run with ``jobs=4`` produces headline
  scalars identical to serial execution (speedup is reported, not
  asserted — this container may expose a single core, where process
  fan-out only adds overhead),
* an immediate re-run against the same store resolves entirely from
  cache hits without re-executing any job, and does so faster than the
  populating run — and still does after the store is compacted,
* at campaign-history scale (``REPRO_BENCH_STORE_N`` records, default
  10k) the indexed SQLite backend answers ``get``/``latest_by_key`` at
  least 10x faster than the JSONL backend's full-file scan,
* compact JSON separators (no space after ``,``/``:``) make the JSONL
  log strictly smaller than the default-separator encoding of the
  same records, decoder-compatible either way,
* leaving telemetry on costs a serial sharded sweep less than 5% of
  wall-clock versus ``REPRO_TELEMETRY=off`` — and the per-phase
  timings it collects (codec pack, store append) are
  exported via ``extra_info`` so ``scripts/check_bench.py`` gates
  phase-level regressions, not just end-to-end medians,
* per-job dispatch overhead of the process pool (one future
  round-trip into a warm worker) is measured and exported as a phase,
  so an order-of-magnitude regression fails the gate.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import pytest

from repro.experiments import list_experiments
from repro.runner import Campaign, ResultStore, run_campaign
from repro.runner.sharding import grid_descriptor, run_sharded_sweep
from repro.telemetry import TELEMETRY_ENV_VAR, metrics, reset_telemetry

from conftest import run_once, run_once_slow

#: History size for the store-scaling benchmark; raise towards 1M to
#: probe the asymptotics (the 10x assertion only widens with N).
STORE_N = int(os.environ.get("REPRO_BENCH_STORE_N", "10000"))

#: sim-validate dominates registry wall-clock; trim it for benchmarking.
FAST_OVERRIDES = {"sim-validate": {"cycles_per_point": 20}}


def _campaign():
    campaign = Campaign("bench-registry")
    for experiment_id, _ in list_experiments():
        campaign.experiment(
            experiment_id, **FAST_OVERRIDES.get(experiment_id, {})
        )
    return campaign


@pytest.mark.benchmark(group="campaign")
def test_parallel_vs_serial_registry_campaign(benchmark):
    """jobs=4 equals serial bit-for-bit; wall-clock ratio is reported."""
    start = time.perf_counter()
    serial = run_campaign(_campaign(), jobs=1)
    serial_s = time.perf_counter() - start
    assert serial.ok

    parallel = run_once_slow(
        benchmark, run_campaign, _campaign(), jobs=4
    )
    assert parallel.ok
    assert parallel.headlines() == serial.headlines()

    parallel_s = parallel.duration_s
    print()
    print(
        f"registry campaign ({len(serial.order)} jobs): "
        f"serial {serial_s:.2f}s, jobs=4 {parallel_s:.2f}s, "
        f"speedup x{serial_s / parallel_s:.2f}"
    )


@pytest.mark.benchmark(group="campaign")
def test_cache_hit_rerun(benchmark, tmp_path):
    """A re-run against a populated store is pure cache hits."""
    store_path = str(tmp_path / "results.jsonl")
    start = time.perf_counter()
    first = run_campaign(_campaign(), store_path=store_path)
    first_s = time.perf_counter() - start
    assert first.ok

    rerun = run_once_slow(
        benchmark, run_campaign, _campaign(), store_path=store_path
    )
    counts = rerun.status_counts()
    assert counts == {"cached": len(first.order)}, counts
    assert rerun.headlines() == first.headlines()
    assert rerun.cache_stats["hits"] == len(first.order)
    assert rerun.duration_s < first_s
    print()
    print(
        f"populate {first_s:.2f}s -> cached re-run "
        f"{rerun.duration_s:.3f}s "
        f"(x{first_s / max(rerun.duration_s, 1e-9):.0f} faster)"
    )


@pytest.mark.benchmark(group="campaign")
def test_compacted_store_rerun_still_cached(benchmark, tmp_path):
    """Compaction drops history without costing a single cache hit."""
    store_path = str(tmp_path / "results.sqlite")
    first = run_campaign(
        _campaign(), store_path=store_path, store_backend="sqlite"
    )
    assert first.ok
    # Burn in superseded history, then compact it away.
    run_campaign(_campaign(), store_path=store_path)
    store = ResultStore(store_path)
    store.append_many(store.load())
    records_before = len(store)
    dropped = store.compact()
    store.close()
    assert dropped == records_before - len(first.order)

    rerun = run_once_slow(
        benchmark, run_campaign, _campaign(), store_path=store_path
    )
    assert rerun.status_counts() == {"cached": len(first.order)}
    assert rerun.headlines() == first.headlines()
    print()
    print(
        f"compacted {records_before} -> {len(first.order)} records; "
        f"re-run still {rerun.cache_stats['hits']} cache hits"
    )


#: Job count for the dispatch-overhead benchmark.  A pool attempt is a
#: future round-trip into a warm worker, so the cost amortises over
#: many jobs.
POOL_DISPATCH_N = int(os.environ.get("REPRO_BENCH_POOL_JOBS", "400"))


def _trivial_campaign(name, count):
    """``count`` independent no-op-sized jobs (dispatch cost dominates)."""
    campaign = Campaign(name)
    for index in range(count):
        campaign.call(
            f"unit-{index:04d}", "repro.units:bits_to_kb",
            n_bits=float(8192 + index),
        )
    return campaign


@pytest.mark.benchmark(group="campaign")
def test_dispatch_overhead_pool(benchmark):
    """Per-job dispatch cost of the process pool.

    The jobs are trivial, so wall-clock is almost pure dispatch
    overhead: one future round-trip into a warm worker per attempt.
    The per-job overhead ships in ``extra_info["phases"]`` so
    ``scripts/check_bench.py`` gates it.
    """
    pool = run_once_slow(
        benchmark, run_campaign,
        _trivial_campaign("bench-pool", POOL_DISPATCH_N),
        jobs=2, executor="pool",
    )
    assert pool.ok
    assert pool.status_counts() == {"ok": POOL_DISPATCH_N}
    pool_per_job = pool.duration_s / POOL_DISPATCH_N
    benchmark.extra_info["phases"] = {"pool_dispatch_s": pool_per_job}
    print()
    print(
        f"dispatch overhead: pool {POOL_DISPATCH_N} jobs "
        f"{pool.duration_s:.2f}s ({pool_per_job * 1e3:.2f} ms/job)"
    )


#: Grid size for the telemetry-overhead sweep (serial, in-process).
TELEMETRY_SWEEP_N = int(
    os.environ.get("REPRO_BENCH_TELEMETRY_N", "150000")
)


@pytest.mark.benchmark(group="campaign")
def test_telemetry_overhead_and_phase_timings(
    benchmark, tmp_path, monkeypatch
):
    """Always-on telemetry costs a serial sweep <5% of wall-clock.

    Each measured run uses a fresh store so every shard really packs,
    merges, and appends (no cache hits).  Off/on runs are paired per
    round and the claim is tested on the median per-round ratio, so
    machine drift and one-off fsync spikes cancel out.  The per-phase
    totals of the telemetry-on runs — codec pack and store append —
    ship in ``extra_info["phases"]`` for ``scripts/check_bench.py``.
    """
    store_ids = itertools.count()

    def sweep_once():
        store = str(tmp_path / f"sweep{next(store_ids)}.sqlite")
        result = run_sharded_sweep(
            "bench",
            "repro.core.batch:evaluate_rate_grid",
            "rate_bps",
            grid_descriptor("geomspace", 32e3, 4096e3, TELEMETRY_SWEEP_N),
            store_path=store,
            shards=4,
            jobs=1,
            strict=True,
        )
        assert result.ok
        return result

    def timed_run(env_value):
        if env_value is None:
            monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(TELEMETRY_ENV_VAR, env_value)
        start = time.perf_counter()
        sweep_once()
        return time.perf_counter() - start

    reset_telemetry()
    timed_run(None)  # warm caches/imports outside the measurement
    reset_telemetry()
    # Paired rounds: the two sides of one round share system state
    # (page cache, writeback pressure), so their ratio is far less
    # noisy than either absolute time.  Alternating which side goes
    # first cancels the second-run penalty; the median ratio shrugs
    # off a single fsync spike that min-of-N would inherit.
    ratios = []
    off_times, on_times = [], []
    for round_index in range(5):
        if round_index % 2:
            on = timed_run(None)
            off = timed_run("off")
        else:
            off = timed_run("off")
            on = timed_run(None)
        off_times.append(off)
        on_times.append(on)
        ratios.append(on / off)
    ratio = sorted(ratios)[len(ratios) // 2]
    off_s = min(off_times)
    on_s = min(on_times)
    registry = metrics()
    phases = {
        "codec_pack_s": registry.counter_value("codec.pack.ns") / 1e9,
        "store_append_s": registry.histogram(
            "store.sqlite.append_s"
        ).total,
    }
    assert all(total > 0 for total in phases.values()), phases
    benchmark.extra_info["phases"] = phases

    run_once_slow(benchmark, sweep_once)
    print()
    print(
        f"{TELEMETRY_SWEEP_N}-point serial sweep: telemetry off "
        f"{off_s:.3f}s, on {on_s:.3f}s, median overhead "
        f"{ratio - 1:+.1%}; phases "
        + ", ".join(f"{k} {v * 1e3:.1f}ms" for k, v in phases.items())
    )
    assert ratio <= 1.05, (
        f"telemetry overhead {ratio - 1:.1%} exceeds 5% "
        f"(per-round ratios {[f'{r:.3f}' for r in sorted(ratios)]})"
    )


def _history(n):
    """n synthetic job records over n//2 keys (every key superseded)."""
    return [
        {
            "key": f"key-{i % (n // 2):08d}",
            "job_id": f"job-{i % 97}",
            "status": "ok",
            "value": {"headline": {"metric": float(i)}},
            "attempts": 1,
            "duration_s": 0.01,
            "stored_at": float(i),
        }
        for i in range(n)
    ]


def _time_queries(store, n, probes=20):
    """Seconds for ``probes`` point lookups plus one latest_by_key."""
    keys = [f"key-{(i * (n // 2) // probes):08d}" for i in range(probes)]
    start = time.perf_counter()
    for key in keys:
        assert store.get(key) is not None
    get_s = time.perf_counter() - start
    start = time.perf_counter()
    latest = store.latest_by_key()
    latest_s = time.perf_counter() - start
    assert len(latest) == n // 2
    return get_s, latest_s


@pytest.mark.benchmark(group="store")
def test_store_scaling_sqlite_vs_jsonl(benchmark, tmp_path):
    """Indexed SQLite lookups beat JSONL full scans >=10x at history scale.

    The JSONL backend re-reads the whole file per query (O(n)); the
    SQLite backend walks a ``(key, id)`` index (O(log n)).  At 10k
    records the observed gap is already orders of magnitude and only
    widens towards the 1M-record regime this backend exists for.
    """
    records = _history(STORE_N)

    jsonl = ResultStore(tmp_path / "scale.jsonl", backend="jsonl")
    start = time.perf_counter()
    jsonl.append_many(records)
    jsonl_append_s = time.perf_counter() - start
    jsonl_get_s, jsonl_latest_s = _time_queries(jsonl, STORE_N)

    sqlite = ResultStore(tmp_path / "scale.sqlite", backend="sqlite")
    start = time.perf_counter()
    sqlite.append_many(records)
    sqlite_append_s = time.perf_counter() - start
    sqlite_get_s, sqlite_latest_s = run_once(
        benchmark, _time_queries, sqlite, STORE_N
    )

    print()
    print(
        f"{STORE_N} records: append jsonl {jsonl_append_s:.2f}s / "
        f"sqlite {sqlite_append_s:.2f}s; 20 gets jsonl "
        f"{jsonl_get_s:.3f}s / sqlite {sqlite_get_s:.4f}s "
        f"(x{jsonl_get_s / max(sqlite_get_s, 1e-9):.0f}); "
        f"latest_by_key jsonl {jsonl_latest_s:.3f}s / sqlite "
        f"{sqlite_latest_s:.3f}s"
    )
    # Identical answers from both backends ...
    probe = f"key-{STORE_N // 4:08d}"
    assert sqlite.get(probe) == jsonl.get(probe)
    # ... but the indexed point lookups are >=10x faster.
    assert sqlite_get_s * 10 <= jsonl_get_s
    sqlite.close()


@pytest.mark.benchmark(group="store")
def test_compact_separators_shrink_store(benchmark, tmp_path):
    """The compact-separator encoding is byte-for-byte smaller.

    Re-encodes the log's own lines with the default ``", "`` /
    ``": "`` separators and asserts the on-disk log beats that —
    every record, every backend write path, no decoder change.  The
    lines are re-encoded as read, because ``iter_records`` strips each
    line's integrity ``check`` token and would compare shorter records
    against the log.
    """
    n = min(STORE_N, 5_000)
    path = tmp_path / "sep.jsonl"
    store = ResultStore(path, backend="jsonl")
    store.append_many(_history(n))
    actual = os.path.getsize(path)

    def default_encoding_bytes():
        with open(path, encoding="utf-8") as handle:
            return sum(
                len(json.dumps(json.loads(line), sort_keys=True).encode())
                + 1
                for line in handle
            )

    spaced = run_once(benchmark, default_encoding_bytes)
    shrink = 1 - actual / spaced
    print()
    print(
        f"{n} records: compact {actual} bytes vs default {spaced} bytes "
        f"({shrink:.1%} smaller)"
    )
    assert actual < spaced
    store.close()


@pytest.mark.benchmark(group="store")
def test_store_compaction_scaling(benchmark, tmp_path):
    """Compacting a fully superseded history halves it on both backends."""
    n = min(STORE_N, 20_000)
    records = _history(n)
    jsonl = ResultStore(tmp_path / "c.jsonl", backend="jsonl")
    jsonl.append_many(records)
    sqlite = ResultStore(tmp_path / "c.sqlite", backend="sqlite")
    sqlite.append_many(records)

    start = time.perf_counter()
    jsonl_dropped = jsonl.compact()
    jsonl_s = time.perf_counter() - start
    # Single round: a second compaction of the same store drops nothing.
    sqlite_dropped = run_once_slow(benchmark, sqlite.compact)

    assert jsonl_dropped == sqlite_dropped == n // 2
    assert len(jsonl) == len(sqlite) == n // 2
    print()
    print(
        f"compacted {n} -> {n // 2} records "
        f"(jsonl {jsonl_s:.2f}s)"
    )
    sqlite.close()

#!/usr/bin/env python
"""Canned chaos scenarios, as CI runs them.

Two deterministic fault plans against the real pipeline, each
asserting the system converges (or fails loudly) with no hangs and no
silent data loss:

* ``worker-crash`` — a pool worker killed hard (``os._exit``) on a
  job's first attempt; the retry must converge on the replacement
  worker, with the sibling job unharmed.
* ``torn-write``  — a shard record's cache put truncated mid-record
  (power-loss model); the run must fail loudly, a re-run against the
  same store must recompute the torn shard and converge bit-exact
  against an undisturbed baseline, and ``repro store verify`` must
  flag the quarantined tear with exit code 1.

Artifacts (the stores and a fault/metric summary) are left in the
scratch directory given as ``argv[1]`` (default ``chaos-smoke/``) for
CI to upload.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [scratch-dir] [scenario]

``scenario`` filters to ``worker-crash`` or ``torn-write`` (default:
both).
"""

from __future__ import annotations

import json
import os
import sys
import time

SCENARIOS = ("worker-crash", "torn-write")

GRID = [float(v) for v in range(200)]


def _workers_target() -> str:
    """Make ``runner_workers`` importable here and in pool workers."""
    workers_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests", "runner",
    )
    if workers_dir not in sys.path:
        sys.path.insert(0, workers_dir)
    existing = os.environ.get("PYTHONPATH", "")
    if workers_dir not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            workers_dir + (os.pathsep + existing if existing else "")
        )
    return "runner_workers:array_curve"


def worker_crash(scratch: str) -> dict[str, object]:
    """A hard worker kill on the first attempt converges via retry."""
    from repro.runner.jobs import JobSpec
    from repro.runner.queue import run_jobs

    plan = {
        "rules": [
            {"site": "queue.attempt", "action": "crash",
             "job_id": "crashy#1"},
        ]
    }
    specs = [
        JobSpec("crashy", "callable", "runner_workers:add",
                params={"a": 20, "b": 22}, retries=2),
        JobSpec("bystander", "callable", "runner_workers:add",
                params={"a": 3, "b": 4}, retries=2),
    ]
    results = run_jobs(specs, jobs=2, faults=plan)
    assert results["crashy"].status == "ok", results["crashy"].error
    assert results["crashy"].value == 42
    assert results["crashy"].attempts == 2, "crash must cost one attempt"
    assert results["bystander"].status == "ok"
    assert results["bystander"].value == 7
    return {
        "crashy_attempts": results["crashy"].attempts,
        "bystander_attempts": results["bystander"].attempts,
    }


def torn_write(scratch: str) -> dict[str, object]:
    """A torn cache put fails the run; the re-run converges; verify flags it."""
    from repro.cli import main as repro_main
    from repro.faults import InjectedFault
    from repro.runner import (
        ResultStore,
        collect_arrays,
        run_campaign,
        sharded_sweep_campaign,
    )
    from repro.runner.integrity import damage_total

    target = _workers_target()

    def sweep(store_path):
        return sharded_sweep_campaign(
            "chaos", target, "values", GRID,
            store_path=store_path, shards=4, retries=2,
        )

    baseline_store = os.path.join(scratch, "torn-baseline.jsonl")
    baseline_campaign = sweep(baseline_store)
    assert run_campaign(
        baseline_campaign, store_path=baseline_store
    ).ok
    def bits(store_path, campaign):
        # Name, dtype and bytes of every column: pins -0.0 and NaN bits.
        columns = collect_arrays(store_path, campaign)
        return [
            (name, column.dtype.str, column.tobytes())
            for name, column in [
                ("", columns.values), *columns.columns.items()
            ]
        ]

    baseline = bits(baseline_store, baseline_campaign)

    store_path = os.path.join(scratch, "torn.jsonl")
    if os.path.exists(store_path):
        os.remove(store_path)
    campaign = sweep(store_path)
    plan = {
        "rules": [
            {"site": "store.append", "action": "torn_write",
             "bytes": 500, "job_id": "chaos/shard0001"},
        ]
    }
    try:
        run_campaign(campaign, store_path=store_path, faults=plan)
    except InjectedFault:
        pass
    else:
        raise AssertionError("a torn cache put must fail the run loudly")
    result = run_campaign(campaign, store_path=store_path)
    assert result.ok, f"re-run did not converge: {result.failures}"
    counts = result.status_counts()
    # shard0000 was stored before the tear; shard0001 recomputes, and
    # the shards the failed run never reached run now.
    assert counts == {"cached": 1, "ok": 4}, counts
    assert bits(store_path, campaign) == baseline, (
        "swept columns drifted from the undisturbed baseline"
    )

    store = ResultStore(store_path)
    try:
        stats = store.verify()
    finally:
        store.close()
    assert damage_total(stats) >= 1, "the tear left no quarantined record"
    # The operator surface agrees: verify exits 1 on a damaged store.
    assert repro_main(["store", "verify", store_path]) == 1
    return {
        "rerun": counts,
        "quarantined": damage_total(stats),
    }


def main() -> int:
    scratch = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1 else "chaos-smoke"
    )
    wanted = sys.argv[2:] or list(SCENARIOS)
    unknown = set(wanted) - set(SCENARIOS)
    if unknown:
        print(f"unknown scenario(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    os.makedirs(scratch, exist_ok=True)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    if src not in sys.path:
        sys.path.insert(0, src)
    _workers_target()

    from repro.telemetry import metrics

    runners = {
        "worker-crash": worker_crash,
        "torn-write": torn_write,
    }
    summary: dict[str, object] = {}
    for name in wanted:
        start = time.monotonic()
        details = runners[name](scratch)
        elapsed = time.monotonic() - start
        details["elapsed_s"] = round(elapsed, 3)
        summary[name] = details
        print(f"chaos {name}: ok ({elapsed:.1f}s) {details}")
    summary["faults_fired"] = {
        key: value
        for key, value in metrics().snapshot()["counters"].items()
        if key.startswith("faults.fired")
    }
    with open(
        os.path.join(scratch, "chaos-summary.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(f"chaos smoke: all green -> {scratch}/chaos-summary.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

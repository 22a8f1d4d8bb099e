#!/usr/bin/env python3
"""Compare fresh pytest-benchmark JSON against a committed baseline.

Usage::

    python scripts/check_bench.py FRESH.json BASELINE.json [--tolerance X]

For every benchmark present in both files, the fresh median must stay
within ``tolerance`` times the baseline median (default 20x — CI
runners and developer laptops differ wildly, so only order-of-magnitude
regressions should fail the build).  Benchmarks that export per-phase
timings via ``extra_info["phases"]`` (codec pack, store append, pool
dispatch) are gated phase by phase under ``name[phase]`` entries with the
same tolerance.  Benchmarks that exist only on one side are reported
but never fail the run: new benchmarks appear before their baseline is
refreshed, and retired ones linger in old baselines.

Exit codes: 0 OK, 1 regression, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_medians(path: str) -> dict[str, float]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read benchmark JSON {path!r}: {error}")
        raise SystemExit(2)
    medians: dict[str, float] = {}
    for bench in payload.get("benchmarks", []):
        stats = bench.get("stats") or {}
        median = stats.get("median")
        name = bench.get("name")
        if name and isinstance(median, (int, float)) and median > 0:
            medians[name] = float(median)
            phases = (bench.get("extra_info") or {}).get("phases") or {}
            for phase, value in phases.items():
                if isinstance(value, (int, float)) and value > 0:
                    medians[f"{name}[{phase}]"] = float(value)
    if not medians:
        print(f"error: no benchmarks found in {path!r}")
        raise SystemExit(2)
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly emitted benchmark JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=20.0,
        help="maximum fresh/baseline median ratio (default 20)",
    )
    args = parser.parse_args(argv)

    fresh = load_medians(args.fresh)
    baseline = load_medians(args.baseline)
    shared = sorted(set(fresh) & set(baseline))
    regressions = []
    for name in shared:
        ratio = fresh[name] / baseline[name]
        marker = "REGRESSION" if ratio > args.tolerance else "ok"
        print(
            f"{marker:>10}  {name}: median {fresh[name] * 1e3:.2f} ms "
            f"vs baseline {baseline[name] * 1e3:.2f} ms (x{ratio:.2f})"
        )
        if ratio > args.tolerance:
            regressions.append(name)
    for name in sorted(set(fresh) - set(baseline)):
        print(f"       new  {name}: no baseline yet")
    for name in sorted(set(baseline) - set(fresh)):
        print(f"   retired  {name}: in baseline only")
    if not shared:
        print("error: no overlapping benchmarks to compare")
        return 2
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"x{args.tolerance:g}: {', '.join(regressions)}"
        )
        return 1
    print(f"\n{len(shared)} benchmark(s) within x{args.tolerance:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

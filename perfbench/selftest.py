"""Self-tests of the benchmark: its checks are live and its layers map right.

    python3 perfbench/selftest.py      # from the repository root, ~5 min

1. A corrupted registry reference drives ``registry``'s error rate to 1.
2. A sweep expectation moved by one ulp drives ``sweep``'s error rate to 1.
3. A ``repro campaign`` summary with one miss fails the ``cli-rerun`` check.
4. ``simulate_wear`` slowed to 1.5x its time moves ``registry/op_p50_ms``
   past its bound in BENCHMARK.json while ``sweep/op_p50_ms`` stays in
   its bound: the wear layer shows on the workload that runs it only.
   Plain and slowed runs alternate and each side takes the mean of its
   runs, so a slow spell of the host during one run cannot decide it.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SECONDS = "10"
#: Plain/slowed run pairs per workload in the slowdown test.
PAIRS = 2


def bench(workload: str, *extra: str, seconds: str = SECONDS) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", seconds,
         "--trace", "0", *extra],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py {workload} {extra} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def error_rate(result: dict) -> float:
    return result["failed"] / result["attempted"]


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bound = next(m["bound"] for m in json.load(handle)["end_to_end"]
                     if m["name"] == "op_p50_ms")
    workdir = os.path.join(".perfbench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    outcomes = []

    def report(name: str, ok: bool, detail: str) -> None:
        outcomes.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)

    try:
        with open(workloads.REFERENCE_PATH, encoding="utf-8") as handle:
            reference = json.load(handle)
        reference["digests"]["table1"] = "0" * 64
        corrupted = os.path.join(workdir, "corrupted_reference.json")
        with open(corrupted, "w", encoding="utf-8") as handle:
            json.dump(reference, handle)
        result = bench("registry", "--reference", corrupted, seconds="3")
        report("corrupted registry reference", error_rate(result) == 1.0,
               f"error_rate {error_rate(result):.2f}")

        result = bench("sweep", "--perturb", seconds="3")
        report("perturbed sweep expectation", error_rate(result) == 1.0,
               f"error_rate {error_rate(result):.2f}")

        n = workloads.EXPERIMENT_COUNT
        bad = f"{n} jobs: {n - 1} cached in 0.00s (cache: {n - 1} hits, 1 misses)"
        report("cli-rerun summary with a miss",
               bool(workloads.check_cli_output(0, bad)),
               "; ".join(workloads.check_cli_output(0, bad)))

        for workload, must_exceed in (("registry", True), ("sweep", False)):
            runs: dict[bool, list[float]] = {False: [], True: []}
            for _ in range(PAIRS):
                for slowed_run in (False, True):
                    extra = ("--slow-wear", "1.5") if slowed_run else ()
                    result = bench(workload, *extra)
                    runs[slowed_run].append(
                        result["metrics"]["op_p50_ms"]["value"])
            base, slowed = (statistics.mean(runs[False]),
                            statistics.mean(runs[True]))
            change = slowed / base - 1
            ok = (change > bound) if must_exceed else (change <= bound)
            report(f"1.5x simulate_wear on {workload}", ok,
                   f"op_p50_ms {base:.1f} -> {slowed:.1f} ms ({change:+.1%}, "
                   f"bound {bound:.0%}, must {'leave' if must_exceed else 'stay in'} it)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src``
(pure Python, nothing to build).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload with the benchmark's
wrappers around each layer and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: Child processes per run, each set up afresh.  setup_s is the median of
#: their set-ups, op_p50_ms the median of all their ops: spreading the
#: ops over three processes and the whole run averages out more of the
#: host's slow spells than one process timing ops back to back.
CHILDREN = 3
#: Every child must have ended this long after the run started.
RUN_DEADLINE_S = 170

EXPERIMENT_IDS = (
    "breakeven", "capacity-example", "dram-negligible", "fig2a", "fig2b",
    "fig3-c85", "fig3a", "fig3b", "fig3c", "sim-validate", "table1",
    "tradeoff10", "wear-balance",
)
START_UP = (
    ["startup.interpreter", "import.repro"]
    + [f"import.{layer}" for layer in tracing.IMPORT_LAYERS]
    + ["import.other", "shutdown.interpreter"]
)
LAYER_MS = (
    [f"experiment.{eid}" for eid in EXPERIMENT_IDS]
    + [
        "wear_leveling.simulate_wear",
        "validation.validate_operating_points",
        "batch.evaluate_rate_grid", "dimensioning.require_batch",
        "sector.min_user_bits_for_utilisation_batch", "dimensioning.labels",
        "codec.pack_series", "codec.unpack_columns",
        "sharding.evaluate_shard", "sharding.merge_shards",
        "sharding.collect_arrays",
        "store.sqlite.append_many", "store.sqlite.get",
        "store.jsonl.iter_latest_by_key", "cache.preload",
        "executor.pool.start", "executor.pool.shutdown", "executor.wait",
        "executor.return", "orchestration.self",
    ]
)
COUNT_UNITS = {
    "wear_leveling.writes": "count", "batch.points": "count",
    "codec.packed_bytes": "B", "store.sqlite.records_written": "count",
    "store.sqlite.gets": "count", "store.jsonl.records_scanned": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.puts": "count",
    "cache.hit_ratio": "ratio", "executor.jobs": "count",
    "executor.attempts_per_job": "ratio",
}


def host_calib_ms() -> float:
    """Best of three timings of a fixed pure-Python loop (diagnostic)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000


def git_commit(root: str) -> str:
    """HEAD of ``root`` itself; ``unknown`` when ``root`` is no git checkout
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class ChildFailed(Exception):
    pass


def run_child(root, workdir, args, mode, deadline, seconds,
              finish=False) -> tuple:
    """One child process: ``(report, spawn time, exit time, stderr)``."""
    command = [sys.executable]
    if mode == "trace":
        command += ["-X", "importtime"]
    command += [
        os.path.join(HERE, "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--mode", mode, "--workdir", workdir, "--root", root,
    ]
    if finish:
        command.append("--finish")
    if args.slow_wear is not None:
        command += ["--slow-wear", str(args.slow_wear)]
    if args.reference is not None:
        command += ["--reference", os.path.abspath(args.reference)]
    if args.perturb:
        command.append("--perturb")
    os.makedirs(workdir)
    spawned = time.perf_counter()
    # A process group of its own, so a child that does not end takes its pool
    # workers and CLI interpreters down with it.
    process = subprocess.Popen(
        command, cwd=root, env=workloads.child_env(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out") from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    exited = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"{mode} child exited {process.returncode}:\n{err[-3000:]}"
        )
    return json.loads(lines[-1]), spawned, exited, err


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def op_summary(ops) -> dict:
    """Fastest op, median, op count and the highest percentile with ten
    ops beyond it."""
    walls = sorted((op["end"] - op["start"]) * 1000 for op in ops)
    tail = None
    for pct in (99.9, 99, 95, 90, 75):
        if len(walls) * (1 - pct / 100) >= 10:
            tail = (pct, percentile(walls, pct / 100))
            break
    return {"min": walls[0], "p50": statistics.median(walls),
            "n": len(walls), "tail": tail}


def failures(ops) -> int:
    return sum(1 for op in ops if op["problems"])


def end_to_end(reports, setups) -> dict:
    ops = [op for report in reports for op in report["ops"]]
    return {
        "op_p50_ms": (op_summary(ops)["p50"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in reports) / 1024, "MB"),
        "store_mb": (reports[-1]["store_bytes"] / 1e6, "MB"),
    }


def per_layer(workload, report, spawned, exited, stderr) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, plus the per-op account."""
    ops = tracing.account(report["spans"])
    count = max(1, len(ops))

    def mean(key, field):
        return sum(op[field].get(key, 0.0) for op in ops) / count

    values = {f"{layer}.ms": mean(layer, "blocking") for layer in LAYER_MS}
    if workload == "cli-rerun":
        for layer in START_UP:
            values[f"{layer}.ms"] = mean(layer, "blocking")
        values["import.repro.ms"] = sum(op["import_ms"] for op in ops) / count
    else:
        # One interpreter per run: its own start-up, taken once.
        t_import, t_imported = report["import"]
        import_ms = (t_imported - t_import) * 1000
        split = tracing.import_layers(
            import_ms, tracing.import_split(stderr))
        values.update({f"{name}.ms": ms for name, ms in split.items()})
        values["startup.interpreter.ms"] = (
            report["first_line"] - spawned) * 1000
        values["import.repro.ms"] = import_ms
        values["shutdown.interpreter.ms"] = (exited - report["end"]) * 1000
    for name in COUNT_UNITS:
        values[name] = mean(name, "counts")
    untraced = op_summary(report["ops"])["p50"]
    traced = op_summary(report["traced_ops"])["p50"]
    values["trace.overhead_pct"] = (traced / untraced - 1) * 100
    values["op.traced_mean_ms"] = sum(op["wall_ms"] for op in ops) / count
    return values, ops


def unit_of(name: str) -> str:
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return COUNT_UNITS[name]


def print_account(ops) -> None:
    """Mean ms per op by layer: on the blocking path, and busy in any process."""
    count = max(1, len(ops))
    blocking: dict[str, float] = {}
    busy: dict[str, float] = {}
    for op in ops:
        for table, field in ((blocking, "blocking"), (busy, "busy")):
            for layer, ms in op[field].items():
                table[layer] = table.get(layer, 0.0) + ms / count
    wall = sum(op["wall_ms"] for op in ops) / count
    print(f"\nper-layer account: mean ms per traced op ({len(ops)} ops)")
    print(f"  {'layer':44s} {'blocking':>10s} {'share':>7s} {'busy':>10s}")
    for layer in sorted(set(blocking) | set(busy),
                        key=lambda name: -blocking.get(name, 0.0)):
        ms = blocking.get(layer, 0.0)
        print(f"  {layer:44s} {ms:10.2f} {ms / wall:7.1%} "
              f"{busy.get(layer, 0.0):10.2f}")
    print(f"  {'sum of blocking':44s} {sum(blocking.values()):10.2f}"
          f"   traced op wall {wall:.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slow-wear", type=float, default=None, metavar="FACTOR",
        help="self-test: make simulate_wear take FACTOR times its time")
    parser.add_argument(
        "--reference", default=None, metavar="FILE",
        help="self-test: check registry headlines against FILE")
    parser.add_argument(
        "--perturb", action="store_true",
        help="self-test: move the sweep expectation by one ulp")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no src/repro under {root}; run from the repository "
              "root", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    calib_start = host_calib_ms()
    setups, reports = [], []
    try:
        if args.trace:
            report, spawned, exited, stderr = run_child(
                root, os.path.join(work, "trace"), args, "trace", deadline,
                args.seconds)
            reports.append(report)
        else:
            for index in range(CHILDREN):
                report, spawned, _, _ = run_child(
                    root, os.path.join(work, f"measure{index}"), args,
                    "measure", deadline, args.seconds / CHILDREN,
                    finish=index == CHILDREN - 1)
                setups.append(report["ready"] - spawned)
                reports.append(report)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    calib_end = host_calib_ms()

    ops = [op for r in reports for op in r["ops"] + r.get("traced_ops", [])]
    failed = failures(ops)
    warm_up_failed = any(r["warm_up_problems"] for r in reports)
    versions = report["versions"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"commit {git_commit(root)}  python {versions['python']}  "
          f"numpy {versions['numpy']}  scipy {versions['scipy']}  "
          f"numba {'yes' if versions['numba'] else 'no'}  "
          f"nproc {os.cpu_count()}")
    print(f"host.calib_ms start {calib_start:.2f}  end {calib_end:.2f}")
    summary = op_summary([op for r in reports for op in r["ops"]])
    tail = (f"p{summary['tail'][0]:g} {summary['tail'][1]:.1f} ms"
            if summary["tail"] else "no tail percentile has 10 ops beyond it")
    print(f"ops {summary['n']}  min {summary['min']:.1f} ms  "
          f"p50 {summary['p50']:.1f} ms  {tail}")
    print(f"error_rate {failed / len(ops):.4f} ({failed} of {len(ops)} ops"
          f"{', warm-up failed' if warm_up_failed else ''})")
    for op in [op for op in ops if op["problems"]][:5]:
        print(f"  failed op: {op['problems'][0]}")
    if args.trace:
        values, account_ops = per_layer(
            args.workload, report, spawned, exited, stderr)
        values["host.calib_ms"] = (calib_start + calib_end) / 2
        print_account(account_ops)
        metrics = {name: (value, unit_of(name))
                   for name, value in values.items()}
    else:
        metrics = end_to_end(reports, setups)
        print(f"setup_s samples {', '.join(f'{s:.3f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not warm_up_failed,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

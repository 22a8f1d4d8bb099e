"""One benchmark process: set up a workload, then time its ops.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
Prints one JSON line: the set-up end time, each op's wall time and
problems, and the process's peak RSS.  Time stamps come from
``time.perf_counter``, which on Linux reads the system-wide monotonic
clock, so ``run.py`` can subtract its own spawn time from them.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode measure|trace --workdir DIR --root DIR [--finish] ...
"""

import time

T_FIRST_LINE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def slow_down(module_name: str, attr: str, factor: float) -> None:
    """Make ``module.attr`` take ``factor`` times its own time."""
    import functools

    def slowed_twin(original):
        @functools.wraps(original)
        def slowed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                time.sleep((factor - 1) * (time.perf_counter() - start))
        return slowed

    tracing.replace_function(module_name, attr, slowed_twin)


def run_ops(workload, seconds: float, recorder=None) -> list[dict]:
    """Closed loop: run ops back to back for ``seconds``; check each."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        index = len(ops)
        start = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.op(index):
                    outcome = workload.op()
            else:
                outcome = workload.op()
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            end = time.perf_counter()
            problems = ["raised: " + traceback.format_exc(limit=3)]
        else:
            end = time.perf_counter()
            problems = workload.check(outcome)
        ops.append({"start": start, "end": end, "problems": problems})
    return ops


def versions() -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--finish", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--slow-wear", type=float, default=None)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    options = {
        "root": args.root,
        "reference": args.reference,
        "perturb": args.perturb,
    }
    workload = workloads.WORKLOADS[args.workload](
        args.workdir, args.seed, options
    )
    sys.stderr.write(f"{tracing.IMPORT_MARK} begin\n")
    sys.stderr.flush()
    t_import = time.perf_counter()
    import repro  # noqa: F401
    t_imported = time.perf_counter()
    sys.stderr.write(f"{tracing.IMPORT_MARK} end\n")
    sys.stderr.flush()
    if args.write_reference:
        workload.write_reference()
        return 0
    workload.setup()
    if args.slow_wear is not None:
        slow_down(
            "repro.formatting.wear_leveling", "simulate_wear", args.slow_wear
        )
    warm_up = run_ops(workload, 0)
    ready = time.perf_counter()
    report = {
        "first_line": T_FIRST_LINE,
        "import": [t_import, t_imported],
        "ready": ready,
        "warm_up_problems": warm_up[0]["problems"],
    }
    if args.mode == "measure":
        report["ops"] = run_ops(workload, args.seconds)
        if args.finish:
            workload.finish()
        report["store_bytes"] = workload.store_bytes
    else:
        report["ops"] = run_ops(workload, args.seconds / 2)
        recorder = tracing.Recorder(os.path.join(args.workdir, "spans"))
        tracing.install(recorder)
        if args.workload == "cli-rerun":
            tracing.trace_cli(
                workload, recorder, workloads.child_env(args.root)
            )
        report["traced_ops"] = run_ops(workload, args.seconds / 2, recorder)
        report["spans"] = recorder.collect()
    report["end"] = time.perf_counter()
    report["peak_rss_kb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    report["versions"] = versions()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""List the functions under ``src/repro`` that no user path calls.

Runs the user paths in this one process under ``sys.setprofile`` and
``threading.setprofile`` and records every code object that starts
running:

* the commands: every subcommand — ``list``; ``run all``, and ``run
  table1 fig2a --jobs 2``; ``campaign`` on JSONL and on SQLite, fresh
  and cached, and with ``--jobs 2``, ``--telemetry`` and ``--trace``;
  ``sweep`` serial, on a pool, over explicit ``--values``, with
  ``break_even_curve``, and serially under a ``REPRO_FAULTS`` plan that
  fails one shard's first attempt (exit 1, the merge skipped); ``store
  info/verify/compact/migrate``, and ``store migrate`` of the per-point
  store a 1.8.0 build wrote (``tests/runner/data``); ``trace export``;
  ``telemetry summary``; ``dimension``; ``plot``; and ``simulate``
  under both policies;
* the examples: the six scripts under ``examples/``;
* perfbench: the set-up and one op of each workload in
  ``perfbench/workloads.py``.  ``cli-rerun``'s op, a fresh ``python -m
  repro campaign``, runs here as that same command in-process.

Then it prints, for each source file, the functions whose own code never
ran, and last a line ``N of M functions never called``.  A function
counts as reached only when its own code runs: a module body or a class
body running means the module was imported, not that anything in it was
called.  A file none of whose functions ran is marked ``imported only``
or ``never imported``.

Pool workers fork from this process and inherit the profile hook; each
writes what it reached to the work directory as it exits, and those
calls count as reached.  The functions that ran only in a worker are
listed on their own before the last line.

Usage::

    PYTHONPATH=src python scripts/reach.py

Not part of the test suite: the probe takes about 45 s on a 2-vCPU
Xeon.  It exits 1 if a path fails, and then prints no report.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import inspect
import io
import json
import multiprocessing.util
import os
import runpy
import sys
import tempfile
import threading
import types
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def real_path(filename: str) -> str:
    return os.path.realpath(filename)


def code_key(code: types.CodeType) -> tuple[str, int, str]:
    return (real_path(code.co_filename), code.co_firstlineno, code.co_name)


def functions_in(root: Path) -> dict[tuple[str, int, str], tuple[str, str]]:
    """Every named function under ``root``: key -> (file, qualified name).

    Lambdas and comprehensions are left out; class and module bodies are
    not functions.
    """
    found = {}
    for path in sorted(root.rglob("*.py")):
        filename = real_path(str(path))
        relative = path.relative_to(REPO).as_posix()
        stack = [compile(path.read_text(encoding="utf-8"), filename, "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                is_function = const.co_flags & inspect.CO_NEWLOCALS
                if is_function and not const.co_name.startswith("<"):
                    found[code_key(const)] = (
                        relative, getattr(const, "co_qualname", const.co_name)
                    )
    return found


class Recorder:
    """Records every code object that starts running, here and in workers.

    ``hook`` is the profile function.  A forked pool worker inherits it
    and writes the keys of what it reached to ``workdir`` as it exits.
    """

    def __init__(self, workdir: str, root: str):
        self.workdir = workdir
        self.root = root
        #: Code objects by id; each value keeps its code object alive,
        #: so an id is never reused for another one.
        self.seen: dict[int, types.CodeType] = {}

    def hook(self, frame, event, arg) -> None:
        if event == "call":
            self.seen[id(frame.f_code)] = frame.f_code

    def keys(self) -> set[tuple[str, int, str]]:
        """Keys of the reached code objects that live under ``root``."""
        keys = {code_key(code) for code in list(self.seen.values())}
        return {key for key in keys if key[0].startswith(self.root)}

    def in_child(self) -> None:
        multiprocessing.util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = os.path.join(self.workdir, f"reach-worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sorted(self.keys()), handle)

    def worker_keys(self) -> set[tuple[str, int, str]]:
        keys = set()
        for name in os.listdir(self.workdir):
            if name.startswith("reach-worker-"):
                with open(os.path.join(self.workdir, name),
                          encoding="utf-8") as handle:
                    keys.update(tuple(key) for key in json.load(handle))
        return keys


@contextlib.contextmanager
def quiet():
    """Swallow a path's output; it is not what the probe reports."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


def run_cli(argv: list[str], expect: int = 0) -> str:
    from repro.cli import main

    with quiet() as sink:
        code = main(argv)
    if code != expect:
        raise RuntimeError(
            f"repro {' '.join(argv)} exited {code}:\n{sink.getvalue()}"
        )
    return sink.getvalue()


def probe_commands(work: str) -> None:
    def w(name: str) -> str:
        return os.path.join(work, name)

    run_cli(["list"])
    run_cli(["run", "all"])
    run_cli(["run", "table1", "fig2a", "--jobs", "2"])
    for store in (w("c.jsonl"), w("c.sqlite")):
        run_cli(["campaign", "--store", store, "--quiet"])
        run_cli(["campaign", "--store", store])  # cached, with progress
    run_cli(["campaign", "--jobs", "2",
             "--store", w("p.jsonl"), "--telemetry", w("t.jsonl"),
             "--trace", w("t.trace.json")])
    grid = ["--parameter", "rate_bps", "--min", "32e3", "--max", "4096e3",
            "--points", "2000", "--shards", "4", "--quiet"]
    target = "repro.core.batch:evaluate_rate_grid"
    run_cli(["sweep", target, *grid, "--store", w("s.sqlite")])
    run_cli(["sweep", target, *grid, "--store", w("s.sqlite")])  # cached
    run_cli(["sweep", target, *grid, "--jobs", "2", "--store", w("sp.jsonl")])
    run_cli(["sweep", target, "--parameter", "rate_bps",
             "--values", "32000,64000,128000,1024000", "--shards", "2",
             "--quiet", "--store", w("sv.sqlite")])
    run_cli(["sweep", "repro.core.batch:break_even_curve", *grid,
             "--store", w("sb.sqlite")])
    from repro.faults import active_faults

    # As under REPRO_FAULTS: the plan is armed and exported for the run.
    fail_shard = {"rules": [{"site": "queue.attempt", "action": "raise",
                             "job_id": "sweep/shard0001#1"}]}
    with active_faults(fail_shard):
        out = run_cli(["sweep", target, *grid, "--store", w("sf.sqlite")],
                      expect=1)
    if "dependency 'sweep/shard0001' did not succeed" not in out:
        raise RuntimeError(f"the faulted sweep ran its merge:\n{out}")
    for store in (w("c.jsonl"), w("s.sqlite")):
        run_cli(["store", "info", store, "--timings"])
        run_cli(["store", "verify", store])
        run_cli(["store", "compact", store])
    run_cli(["store", "migrate", w("c.jsonl"), w("m.sqlite")])
    run_cli(["store", "migrate", w("s.sqlite"), w("m.jsonl")])
    # Per-point shard payloads, which only migrate reads.
    legacy = REPO / "tests" / "runner" / "data" / "sweep-88cd83f.jsonl"
    out = run_cli(["store", "migrate", str(legacy), w("m-legacy.sqlite")])
    if "converted shard-json: 4 records" not in out:
        raise RuntimeError(f"the legacy store did not convert:\n{out}")
    run_cli(["trace", "export", w("t.jsonl")])
    run_cli(["telemetry", "summary", w("t.jsonl")])
    run_cli(["dimension", "--rate", "1024"])
    run_cli(["plot"])
    simulate = ["simulate", "--rate", "1024", "--buffer-kb", "20",
                "--duration", "5"]
    run_cli(simulate)
    run_cli([*simulate, "--always-on"])


def probe_examples(work: str) -> None:
    for path in sorted((REPO / "examples").glob("*.py")):
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            with quiet():
                runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise RuntimeError(f"{path.name} exited {stop.code}") from None
        finally:
            sys.argv = saved


def probe_perfbench(work: str) -> None:
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    options = {"root": str(REPO)}
    for name, workload_class in workloads.WORKLOADS.items():
        workdir = os.path.join(work, f"perfbench-{name}")
        os.mkdir(workdir)
        workload = workload_class(workdir, workloads.DEFAULT_SEED, options)
        workload.setup()
        if name == "cli-rerun":
            # The op's command, in this process instead of a fresh one.
            argv = workload.command[3:]
            problems = workloads.check_cli_output(0, run_cli(argv))
        else:
            problems = workload.check(workload.op())
        if problems:
            raise RuntimeError(f"perfbench {name}: {problems}")


def report(functions, here: set, in_workers: set) -> list[str]:
    by_file: dict[str, list[tuple[int, str]]] = {}
    totals: dict[str, int] = {}
    for key, (relative, qualname) in functions.items():
        totals[relative] = totals.get(relative, 0) + 1
        if key not in here and key not in in_workers:
            by_file.setdefault(relative, []).append((key[1], qualname))
    imported = {
        os.path.realpath(module.__file__)
        for module in list(sys.modules.values())
        if getattr(module, "__file__", None)
    }
    lines = []
    for relative in sorted(by_file):
        missed = sorted(by_file[relative])
        note = ""
        if len(missed) == totals[relative]:
            path = os.path.realpath(REPO / relative)
            note = "; imported only" if path in imported else "; never imported"
        lines.append(f"{relative}  ({len(missed)} of {totals[relative]}{note})")
        lines.extend(f"    {line:>4}  {qualname}" for line, qualname in missed)
    only_workers = sorted(
        (functions[key][0], key[1], functions[key][1])
        for key in in_workers - here
        if key in functions
    )
    if only_workers:
        lines.append("")
        lines.append(
            f"ran only in forked pool workers ({len(only_workers)}, "
            "counted as reached):"
        )
        lines.extend(
            f"    {relative}:{line}  {qualname}"
            for relative, line, qualname in only_workers
        )
    unreached = sum(len(missed) for missed in by_file.values())
    lines.append("")
    lines.append(f"{unreached} of {len(functions)} functions never called")
    return lines


def main() -> int:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    spec = importlib.util.find_spec("repro")
    if spec is None or not spec.submodule_search_locations:
        print("repro is not importable; run with PYTHONPATH=src",
              file=sys.stderr)
        return 2
    root = Path(spec.submodule_search_locations[0]).resolve()
    functions = functions_in(root)
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        recorder = Recorder(work, str(root) + os.sep)
        multiprocessing.util.register_after_fork(recorder, Recorder.in_child)
        threading.setprofile(recorder.hook)
        sys.setprofile(recorder.hook)
        try:
            for probe in (probe_commands, probe_examples, probe_perfbench):
                probe(work)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        in_workers = recorder.worker_keys()
    print("\n".join(report(functions, recorder.keys(), in_workers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

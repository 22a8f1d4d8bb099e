"""Spans around calls into each layer, and the per-layer account they give.

The program is not edited: :func:`install` wraps public functions and
methods of each layer from outside, so a later change to the program is
measured by the same spans.  A span records its name, start, end, the
span that called it and the process it ran in; spans stay in memory and
are written out when the run ends (pool workers append theirs to one
file per process, because a worker is forked from the traced process
and never returns to it).

:func:`account` turns the spans of each traced op into self times that
add up to the op's wall time along its blocking path: at each instant
the time goes to the innermost span of a busy worker process (shared
evenly when several are busy), else to the innermost span of the timed
process, else to executor dispatch or return latency, else to
orchestration.  Stdlib only: ``run.py`` imports it without ``repro``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import subprocess
import sys
import time
import weakref

IMPORT_MARK = "perfbench: import repro"

#: Spans whose self time is orchestration (queue, campaign, events,
#: telemetry, CLI argument handling), not a layer of its own.
ORCHESTRATION = {"op", "executor.attempt", "cli.main"}

#: Packages the start-up split reports, most specific first.
IMPORT_LAYERS = (
    "repro.core", "repro.runner", "repro.telemetry", "repro.experiments",
    "numpy", "scipy",
)


class Recorder:
    """Spans and point events of this process (and of its forks)."""

    def __init__(self, span_dir: str | None):
        self.span_dir = span_dir
        if span_dir:
            os.makedirs(span_dir, exist_ok=True)
        self.main_pid = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.events: list[dict] = []
        self.stack: list[dict] = []
        self.seq = 0

    def _own(self) -> None:
        if os.getpid() != self.pid:
            # A forked pool worker: its parent's records are not its own.
            self.pid = os.getpid()
            self.spans, self.events, self.stack = [], [], []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._own()
        self.seq += 1
        record = {
            "pid": self.pid, "id": self.seq,
            "parent": self.stack[-1]["id"] if self.stack else 0,
            "name": name, "start": time.perf_counter(), "end": None,
            "attrs": attrs,
        }
        self.stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)
            if not self.stack and self.pid != self.main_pid and self.span_dir:
                self._flush()

    def event(self, name: str, **attrs) -> None:
        self._own()
        self.events.append(
            {"pid": self.pid, "name": name, "t": time.perf_counter(),
             "attrs": attrs}
        )

    def _flush(self) -> None:
        path = os.path.join(self.span_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"spans": self.spans, "events": self.events}) + "\n")
        self.spans, self.events = [], []

    def op(self, index: int):
        return self.span("op", op=index)

    def collect(self) -> dict:
        """This process's records plus every worker's written ones."""
        spans, events = list(self.spans), list(self.events)
        if self.span_dir:
            for name in sorted(os.listdir(self.span_dir)):
                with open(os.path.join(self.span_dir, name),
                          encoding="utf-8") as handle:
                    for line in handle:
                        batch = json.loads(line)
                        spans += batch["spans"]
                        events += batch["events"]
        return {"spans": spans, "events": events}


# -- wrappers ----------------------------------------------------------------


def _traced(recorder, original, name, attrs=None):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as record:
            result = original(*args, **kwargs)
            if attrs is not None:
                record["attrs"].update(attrs(args, result))
            return result
    return traced


def replace_function(module_name, attr, wrapper_of) -> None:
    """Swap a function everywhere it is bound under its own name."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = wrapper_of(original)
    for module in list(sys.modules.values()):
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


#: (module, function, span name, counts taken from (args, result)).
FUNCTIONS = (
    ("repro.formatting.wear_leveling", "simulate_wear",
     "wear_leveling.simulate_wear", lambda a, r: {"writes": len(a[1])}),
    ("repro.analysis.validation", "validate_operating_points",
     "validation.validate_operating_points", None),
    ("repro.core.batch", "evaluate_rate_grid", "batch.evaluate_rate_grid",
     lambda a, r: {"points": len(r["feasible"])}),
    ("repro.runner.codec", "pack_series", "codec.pack_series",
     lambda a, r: {"bytes": len(r["blob"])}),
    ("repro.runner.codec", "unpack_columns", "codec.unpack_columns", None),
    ("repro.runner.sharding", "evaluate_shard", "sharding.evaluate_shard",
     None),
    ("repro.runner.sharding", "merge_shards", "sharding.merge_shards", None),
    ("repro.runner.sharding", "collect_arrays", "sharding.collect_arrays",
     None),
    ("repro.runner.executors.pool", "warm_worker", "executor.pool.start",
     None),
)

#: (module, class, method, span name, counts taken from (args, result)).
METHODS = (
    ("repro.formatting.sector", "SectorLayout",
     "min_user_bits_for_utilisation_batch",
     "sector.min_user_bits_for_utilisation_batch", None),
    ("repro.core.dimensioning", "BufferDimensioner", "require_batch",
     "dimensioning.require_batch", None),
    ("repro.core.dimensioning", "BatchRequirement", "labels",
     "dimensioning.labels", None),
    ("repro.runner.backends.sqlite", "SqliteBackend", "append_many",
     "store.sqlite.append_many", lambda a, r: {"records": len(a[1])}),
    ("repro.runner.backends.sqlite", "SqliteBackend", "get",
     "store.sqlite.get", None),
    ("repro.runner.cache", "ResultCache", "__init__", "cache.preload", None),
    ("repro.runner.executors.pool", "PoolExecutor", "shutdown",
     "executor.pool.shutdown", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every traced layer entry point; call before any pool forks."""
    import importlib

    for module_name in {entry[0] for entry in FUNCTIONS + METHODS}:
        importlib.import_module(module_name)
    import repro.experiments.registry as registry
    from repro.runner.backends.jsonl import JsonlBackend
    from repro.runner.cache import ResultCache
    from repro.runner.executors import pool

    for module_name, attr, name, attrs in FUNCTIONS:
        replace_function(
            module_name, attr,
            lambda original, n=name, c=attrs: _traced(recorder, original, n, c),
        )
    for module_name, cls_name, attr, name, attrs in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, attr, _traced(recorder, getattr(cls, attr), name, attrs))
    for experiment_id, (runner, text) in list(registry.EXPERIMENTS.items()):
        registry.EXPERIMENTS[experiment_id] = (
            _traced(recorder, runner, f"experiment.{experiment_id}"), text
        )

    original_iter = JsonlBackend.iter_latest_by_key

    @functools.wraps(original_iter)
    def iter_latest_by_key(self, *args, **kwargs):
        records = original_iter(self, *args, **kwargs)
        while True:
            with recorder.span("store.jsonl.iter_latest_by_key") as span:
                try:
                    record = next(records)
                except StopIteration:
                    span["attrs"]["records"] = 0
                    return
                span["attrs"]["records"] = 1
            yield record

    JsonlBackend.iter_latest_by_key = iter_latest_by_key

    original_lookup = ResultCache.lookup
    original_put = ResultCache.put

    @functools.wraps(original_lookup)
    def lookup(self, spec):
        found = original_lookup(self, spec)
        recorder.event("cache.hit" if found is not None else "cache.miss")
        return found

    @functools.wraps(original_put)
    def put(self, spec, result):
        original_put(self, spec, result)
        recorder.event("cache.put")

    ResultCache.lookup, ResultCache.put = lookup, put

    original_submit = pool.PoolExecutor.submit
    original_collect = pool.PoolExecutor.collect
    started = weakref.WeakSet()

    @functools.wraps(original_submit)
    def submit(self, spec, attempt, deadline_s):
        recorder.event("executor.submit", job=spec.job_id, attempt=attempt)
        if self in started:
            return original_submit(self, spec, attempt, deadline_s)
        started.add(self)
        # An executor's first submit creates its pool and forks the workers.
        with recorder.span("executor.pool.start"):
            return original_submit(self, spec, attempt, deadline_s)

    @functools.wraps(original_collect)
    def collect(self, ticket):
        outcome = original_collect(self, ticket)
        recorder.event(
            "executor.collect", job=outcome.job_id, attempt=outcome.attempt
        )
        return outcome

    pool.PoolExecutor.submit, pool.PoolExecutor.collect = submit, collect

    def attempt_wrapper(original):
        @functools.wraps(original)
        def pool_attempt(spec, attempt=0):
            with recorder.span(
                "executor.attempt", job=spec.job_id, attempt=attempt
            ):
                return original(spec, attempt)
        return pool_attempt

    replace_function(
        "repro.runner.executors.pool", "pool_attempt", attempt_wrapper
    )


# -- start-up ------------------------------------------------------------------


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_split(stderr: str) -> dict[str, float]:
    """Milliseconds of the marked ``import`` per package, from ``-X importtime``.

    Each imported module's self time goes to the listed package it
    belongs to; a module outside ``repro`` (stdlib, third party) goes to
    the package whose import pulled it in; the rest is ``other``.
    """
    lines = stderr.splitlines()
    try:
        begin = lines.index(f"{IMPORT_MARK} begin")
        end = lines.index(f"{IMPORT_MARK} end")
    except ValueError:
        return {}
    pending: dict[int, list] = {}
    for line in lines[begin + 1:end]:
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue
        self_us, _, indent, name = match.groups()
        depth = (len(indent) - 1) // 2
        node = (name, int(self_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    split: dict[str, float] = {}

    def walk(node, inherited):
        name, self_us, children = node
        layer = next(
            (p for p in IMPORT_LAYERS if name == p or name.startswith(p + ".")),
            "other" if name.split(".")[0] == "repro" else inherited,
        )
        split[layer] = split.get(layer, 0.0) + self_us / 1000
        for child in children:
            walk(child, layer)

    for roots in pending.values():
        for root in roots:
            walk(root, "other")
    return split


def trace_cli(workload, recorder: Recorder, env: dict) -> None:
    """Make ``workload.op`` run ``repro.cli.main`` traced in a fresh interpreter."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "cli_op.py")
    argv = workload.command[3:]  # after: python -m repro
    runs = 0

    def op():
        nonlocal runs
        runs += 1
        spans_file = os.path.join(workload.workdir, "cli-op.json")
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", script, spans_file, *argv],
            cwd=workload.root, env=env, capture_output=True, text=True,
            timeout=60,
        )
        end = time.perf_counter()
        with open(spans_file, encoding="utf-8") as handle:
            data = json.load(handle)
        os.remove(spans_file)
        # Process ids can be reused; one label per op keeps spans apart.
        pid = f"cli-{runs}"
        for record in data["spans"] + data["events"]:
            record["pid"] = pid
        split = import_split(completed.stderr)
        recorder.spans += data["spans"] + [
            _synthetic(pid, -1, "startup.interpreter", start,
                       data["first_line"]),
            _synthetic(pid, -2, "import", *data["import"], split=split),
            _synthetic(pid, -3, "shutdown.interpreter", data["end"], end),
        ]
        recorder.events += data["events"]
        return completed

    workload.op = op


def _synthetic(pid, span_id, name, start, end, **attrs) -> dict:
    return {"pid": pid, "id": span_id, "parent": 0, "name": name,
            "start": start, "end": end, "attrs": attrs}


# -- the per-layer account -----------------------------------------------------


def _self_ms(span, children) -> float:
    inner = sum(c["end"] - c["start"] for c in children.get(span["key"], ()))
    return (span["end"] - span["start"] - inner) * 1000


def account(records: dict) -> list[dict]:
    """Per traced op: blocking-path ms per layer, busy ms, and counts."""
    spans = [dict(s, key=(s["pid"], s["id"])) for s in records["spans"]]
    roots = sorted((s for s in spans if s["name"] == "op"),
                   key=lambda s: s["start"])
    by_key = {s["key"]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault((s["pid"], s["parent"]), []).append(s)

    def depth(s):
        d = 0
        while (s["pid"], s["parent"]) in by_key:
            s = by_key[(s["pid"], s["parent"])]
            d += 1
        return d

    for s in spans:
        s["depth"] = depth(s)
    ops = []
    for root in roots:
        lo, hi = root["start"], root["end"]
        main = root["pid"]
        members = [s for s in spans
                   if s is not root and lo <= s["start"] < hi]
        events = [e for e in records["events"] if lo <= e["t"] < hi]
        tickets: dict = {}
        for e in events:
            if e["name"] in ("executor.submit", "executor.collect"):
                ticket = tickets.setdefault(
                    (e["attrs"]["job"], e["attrs"]["attempt"]), {})
                ticket[e["name"]] = e["t"]
        for s in members:
            if s["name"] == "executor.attempt":
                ticket = tickets.setdefault(
                    (s["attrs"]["job"], s["attrs"]["attempt"]), {})
                ticket["start"], ticket["end"] = s["start"], s["end"]
        cuts = {lo, hi}
        for s in members:
            cuts.update(t for t in (s["start"], s["end"]) if lo < t < hi)
        for ticket in tickets.values():
            cuts.update(t for t in ticket.values() if lo < t < hi)
        cuts = sorted(cuts)
        blocking: dict[str, float] = {}

        def charge(layer, ms):
            blocking[layer] = blocking.get(layer, 0.0) + ms

        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            innermost: dict = {}
            for s in members:
                if s["start"] <= mid < s["end"]:
                    best = innermost.get(s["pid"])
                    if best is None or s["depth"] > best["depth"]:
                        innermost[s["pid"]] = s
            width = (b - a) * 1000
            workers = [s for pid, s in innermost.items() if pid != main]
            if workers:
                for s in workers:
                    charge(layer_of(s["name"]), width / len(workers))
            elif main in innermost:
                charge(layer_of(innermost[main]["name"]), width)
            elif any(t.get("executor.submit", hi) <= mid < t.get("start", hi)
                     for t in tickets.values()):
                charge("executor.wait", width)
            elif any(t.get("end", hi) <= mid < t.get("executor.collect", hi)
                     for t in tickets.values()):
                charge("executor.return", width)
            else:
                charge("orchestration.self", width)
        imports = blocking.pop("import", 0.0)
        if imports:
            split = next(s["attrs"]["split"] for s in members
                         if s["name"] == "import")
            blocking.update(import_layers(imports, split))
        busy = {name: ms for name, ms in blocking.items()
                if name.startswith("import.")}
        for s in members:
            if s["name"] != "import":
                layer = layer_of(s["name"])
                busy[layer] = busy.get(layer, 0.0) + _self_ms(s, children)
        ops.append({
            "wall_ms": (hi - lo) * 1000,
            "import_ms": imports,
            "blocking": blocking,
            "busy": busy,
            "counts": _counts(members, events, tickets),
        })
    return ops


def import_layers(total_ms: float, split: dict[str, float]) -> dict:
    """An import's wall time as per-package parts plus ``other``."""
    parts = {f"import.{p}": split.get(p, 0.0) for p in IMPORT_LAYERS}
    parts["import.other"] = total_ms - sum(parts.values())
    return parts


def layer_of(name: str) -> str:
    return "orchestration.self" if name in ORCHESTRATION else name


def _counts(members, events, tickets) -> dict[str, float]:
    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in members
                   if s["name"] == name)

    def spans_named(name):
        return sum(1 for s in members if s["name"] == name)

    def events_named(name):
        return sum(1 for e in events if e["name"] == name)

    hits, misses = events_named("cache.hit"), events_named("cache.miss")
    submits = events_named("executor.submit")
    jobs = len({job for job, _ in tickets})
    return {
        "wear_leveling.writes": total("wear_leveling.simulate_wear", "writes"),
        "batch.points": total("batch.evaluate_rate_grid", "points"),
        "codec.packed_bytes": total("codec.pack_series", "bytes"),
        "store.sqlite.records_written": total(
            "store.sqlite.append_many", "records"),
        "store.sqlite.gets": spans_named("store.sqlite.get"),
        "store.jsonl.records_scanned": total(
            "store.jsonl.iter_latest_by_key", "records"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.puts": events_named("cache.put"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "executor.jobs": submits,
        "executor.attempts_per_job": submits / jobs if jobs else 0.0,
    }

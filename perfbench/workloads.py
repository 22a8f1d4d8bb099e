"""The benchmark's three workloads, each driven through public entry points.

A workload builds its inputs from the seed in :meth:`setup`, runs one
operation per :meth:`op` call (the only timed code), and checks that
operation's output in :meth:`check`, which returns the list of problems
found (empty when the op is correct and did its named work).

* ``registry``: the whole paper, all 13 experiments in one warm process.
* ``sweep``: a 200k-point sharded sweep on a process pool into a fresh
  SQLite store, then a columnar read-back.
* ``cli-rerun``: ``python -m repro campaign`` against a JSONL store that
  already holds every result, so each op is start-up plus store reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "registry_reference.json")

#: ``wear-balance``'s own default seed; its headlines are in the reference.
DEFAULT_SEED = 2011
EXPERIMENT_COUNT = 13
SWEEP_TARGET = "repro.core.batch:evaluate_rate_grid"
SWEEP_POINTS = 200_000
SWEEP_SHARDS = 8


def child_env(root: str) -> dict[str, str]:
    """The environment every benchmark process runs in.

    ``REPRO_*`` settings are dropped so a caller's shell (for example a
    ``REPRO_JOBS`` or ``REPRO_STORE`` export) cannot change the work.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def headline_digest(headline) -> str:
    """SHA-256 of one experiment's headline scalars (floats exact)."""
    text = json.dumps(headline, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_grid(seed: int):
    """A 200k-point log grid whose ends the seed jitters by up to 3%."""
    from repro.runner import grid_descriptor

    rng = random.Random(seed)
    lo = 32e3 * (1 + rng.uniform(-0.03, 0.03))
    hi = 4096e3 * (1 + rng.uniform(-0.03, 0.03))
    return grid_descriptor("geomspace", lo, hi, SWEEP_POINTS)


def store_bytes(path: str) -> int:
    """Bytes on disk of a store file plus any SQLite side files."""
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm", "-journal")
        if os.path.exists(path + suffix)
    )


class Registry:
    """One ``run_campaign`` over all 13 registry experiments, no store."""

    name = "registry"

    def __init__(self, workdir: str, seed: int, options: dict):
        self.workdir = workdir
        self.seed = seed
        self.reference_path = options.get("reference") or REFERENCE_PATH
        self.first: dict[str, str] | None = None
        self.store_bytes = 0

    def setup(self) -> None:
        import repro  # noqa: F401  (the import is part of set-up)

        with open(self.reference_path, encoding="utf-8") as handle:
            self.reference = json.load(handle)

    def campaign(self):
        from repro.runner import Campaign
        from repro.experiments import list_experiments

        campaign = Campaign("registry")
        for experiment_id, _ in list_experiments():
            if experiment_id == "wear-balance":
                campaign.experiment(experiment_id, seed=self.seed)
            else:
                campaign.experiment(experiment_id)
        return campaign

    def op(self):
        import repro.runner

        return repro.runner.run_campaign(self.campaign(), jobs=1)

    def check(self, result) -> list[str]:
        problems = []
        counts = result.status_counts()
        if counts != {"ok": EXPERIMENT_COUNT}:
            problems.append(f"expected {EXPERIMENT_COUNT} ok jobs, got {counts}")
        digests = {
            job_id: headline_digest(headline)
            for job_id, headline in result.headlines().items()
        }
        expected = dict(self.reference["digests"])
        if self.seed != self.reference["wear_seed"]:
            expected.pop("wear-balance")
        for job_id, digest in sorted(expected.items()):
            if digests.get(job_id) != digest:
                problems.append(f"{job_id}: headline digest differs")
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            problems.append("headlines differ from the first op's")
        return problems

    def finish(self) -> None:
        """Persist one more run to JSONL: the store this campaign makes."""
        import repro.runner

        path = os.path.join(self.workdir, "registry.jsonl")
        result = repro.runner.run_campaign(
            self.campaign(), jobs=1, store_path=path
        )
        if result.status_counts() != {"ok": EXPERIMENT_COUNT}:
            raise RuntimeError("persisted registry run did not succeed")
        self.store_bytes = store_bytes(path)

    def write_reference(self) -> None:
        """Regenerate the committed digests (default seed only)."""
        if self.seed != DEFAULT_SEED:
            raise SystemExit(f"write the reference with --seed {DEFAULT_SEED}")
        result = self.op()
        digests = {
            job_id: headline_digest(headline)
            for job_id, headline in result.headlines().items()
        }
        with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
            json.dump({"wear_seed": DEFAULT_SEED, "digests": digests},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")


class Sweep:
    """A sharded 200k-point sweep into a fresh SQLite store, read back.

    The shards run on a one-worker process pool.  On a 2-vCPU host whose
    neighbours take a vCPU at times, a two-worker pool's op time doubles
    whenever they do; one worker keeps the pool, codec and store path
    while staying steady enough to compare runs (see README.md).
    """

    name = "sweep"

    def __init__(self, workdir: str, seed: int, options: dict):
        self.workdir = workdir
        self.seed = seed
        self.perturb = bool(options.get("perturb"))
        self.ops = 0
        self.store_bytes = 0

    def setup(self) -> None:
        import numpy as np
        from repro.core.batch import evaluate_rate_grid
        from repro.runner.sharding import materialise_grid

        self.grid = seeded_grid(self.seed)
        self.expected_values = materialise_grid(self.grid)
        self.expected = {
            name: np.asarray(column)
            for name, column in evaluate_rate_grid(self.expected_values).items()
        }
        if self.perturb:
            column = self.expected["required_buffer_bits"]
            column[0] = np.nextafter(column[0], np.inf)

    def op(self):
        import repro.runner

        self.ops += 1
        path = os.path.join(self.workdir, f"sweep-{self.ops}.sqlite")
        result = repro.runner.run_sharded_sweep(
            "sweep", SWEEP_TARGET, "rate_bps", self.grid,
            store_path=path, shards=SWEEP_SHARDS, jobs=1, executor="pool",
        )
        campaign = repro.runner.sharded_sweep_campaign(
            "sweep", SWEEP_TARGET, "rate_bps", self.grid,
            store_path=path, shards=SWEEP_SHARDS,
        )
        columns = repro.runner.collect_arrays(path, campaign)
        return path, result, columns

    def check(self, outcome) -> list[str]:
        import numpy as np

        path, result, columns = outcome
        problems = []
        counts = result.status_counts()
        if counts != {"ok": SWEEP_SHARDS + 1}:
            problems.append(f"expected {SWEEP_SHARDS + 1} ok jobs, got {counts}")
        stats = result.cache_stats
        if stats.get("hits") != 0 or stats.get("puts") != SWEEP_SHARDS + 1:
            problems.append(f"expected 0 hits and 9 puts, got {stats}")
        merge = result.results["sweep/merge"].value
        if merge.get("points") != SWEEP_POINTS:
            problems.append(f"merge saw {merge.get('points')} points")
        if not np.array_equal(columns.values, self.expected_values):
            problems.append("read-back grid values differ")
        for name, expected in self.expected.items():
            got = np.asarray(columns.columns.get(name))
            if got.dtype.kind == "f":
                same = got.tobytes() == expected.astype(got.dtype).tobytes()
            else:
                same = np.array_equal(got, expected)
            if not same:
                problems.append(f"column {name} differs from the direct grid")
        self.store_bytes = store_bytes(path)
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        return problems

    def finish(self) -> None:
        pass


_SUMMARY = re.compile(
    r"(\d+) jobs: (\d+) cached in [\d.]+s \(cache: (\d+) hits, (\d+) misses\)"
)


def check_cli_output(returncode: int, stdout: str) -> list[str]:
    """Problems in one cached ``repro campaign`` run's exit and summary."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    match = _SUMMARY.search(stdout)
    n = EXPERIMENT_COUNT
    if match is None:
        problems.append("no all-cached summary line in the output")
    elif tuple(map(int, match.groups())) != (n, n, n, 0):
        problems.append(f"summary {match.group(0)!r} is not {n} cached/hits")
    return problems


class CliRerun:
    """A fresh ``python -m repro campaign`` against a full JSONL store."""

    name = "cli-rerun"

    def __init__(self, workdir: str, seed: int, options: dict):
        self.workdir = workdir
        self.seed = seed
        self.root = options["root"]
        self.store = os.path.join(workdir, "shared.jsonl")
        self.command = [
            sys.executable, "-m", "repro", "campaign",
            "--store", self.store, "--quiet",
        ]
        self.store_bytes = 0

    def setup(self) -> None:
        import repro.runner

        result = repro.runner.run_campaign(
            repro.runner.registry_campaign(), jobs=1, store_path=self.store
        )
        if result.status_counts() != {"ok": EXPERIMENT_COUNT}:
            raise RuntimeError(f"store fill: {result.status_counts()}")
        sweep = repro.runner.run_sharded_sweep(
            "sweep", SWEEP_TARGET, "rate_bps", seeded_grid(self.seed),
            store_path=self.store, shards=SWEEP_SHARDS, jobs=1,
        )
        if not sweep.ok:
            raise RuntimeError("store fill: sweep failed")
        self.store_bytes = store_bytes(self.store)

    def op(self):
        return subprocess.run(
            self.command, cwd=self.root, env=child_env(self.root),
            capture_output=True, text=True, timeout=60,
        )

    def check(self, completed) -> list[str]:
        return check_cli_output(completed.returncode, completed.stdout)

    def finish(self) -> None:
        self.store_bytes = store_bytes(self.store)


WORKLOADS = {cls.name: cls for cls in (Registry, Sweep, CliRerun)}

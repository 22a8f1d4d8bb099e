"""Start-up footprint: each command imports only what it runs.

Every real command pays for what it imports before it does any work.
scipy is not a dependency, and ``numpy.f2py`` only ever came in through
scipy's array-API shim.  Package ``__init__`` modules export their
names lazily, so ``repro list`` and ``--help`` read the experiment
table without numpy, and a fully cached campaign serves every result
from the store without loading numpy, the model core or an experiment.
Each check runs in a fresh interpreter, because this test session has
long since imported whatever the other tests needed.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner import registry_campaign, run_campaign

FORBIDDEN = ("scipy", "numpy.f2py")

#: What printing the parser or the experiment table must not load.
NOT_AT_START = (
    "numpy",
    "repro.core",
    "repro.experiments.registry",
    "repro.runner",
    "repro.telemetry",
    "sqlite3",
)

#: What a campaign whose every job is a cache hit must not load.
NOT_WHEN_CACHED = (
    "numpy",
    "repro.core",
    "repro.devices",
    "repro.formatting",
    "repro.streaming",
    "concurrent.futures.process",
)

#: Packages whose ``__init__`` exports its names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.devices",
    "repro.experiments",
    "repro.runner",
    "repro.runner.executors",
    "repro.sim",
)

#: The directory holding the ``repro`` package this session imported.
SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


def fresh_python(
    *args: str, env_overrides: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """Run ``python -X importtime ARGS`` on this session's package."""
    env = dict(os.environ, **(env_overrides or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def imported(completed: subprocess.CompletedProcess) -> set[str]:
    """Every module name ``-X importtime`` reported for one process."""
    return {
        line.rpartition("|")[2].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded_of(modules: set[str], prefixes: tuple[str, ...]) -> list[str]:
    """The loaded modules that are one of ``prefixes`` or inside one."""
    return sorted(
        module
        for module in modules
        if any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )
    )


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_heavy_modules_out(module):
    modules = imported(fresh_python("-c", f"import {module}"))
    assert module in modules
    assert loaded_of(modules, FORBIDDEN) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("-c", "import repro.cli"),
        ("-m", "repro", "list"),
        ("-m", "repro", "--help"),
        ("-m", "repro", "campaign", "--help"),
    ],
    ids=["import-cli", "list", "help", "campaign-help"],
)
def test_start_up_loads_no_models_runner_or_numpy(argv):
    completed = fresh_python(*argv)
    modules = imported(completed)
    assert "repro.cli" in modules
    assert loaded_of(modules, NOT_AT_START + FORBIDDEN) == []


def test_cached_campaign_loads_no_numpy_models_or_experiments(tmp_path):
    store = str(tmp_path / "s.jsonl")
    ids = ["table1", "breakeven"]
    assert run_campaign(registry_campaign(ids), store_path=store).ok
    completed = fresh_python("-m", "repro", "campaign", *ids, "--store", store)
    assert "2 jobs: 2 cached" in completed.stdout
    modules = imported(completed)
    assert "repro.runner.cache" in modules
    assert loaded_of(modules, NOT_WHEN_CACHED + FORBIDDEN) == []
    experiments = loaded_of(modules, ("repro.experiments",))
    assert experiments == ["repro.experiments", "repro.experiments.catalog"]


@pytest.mark.parametrize(
    "argv",
    [
        ("-c", "import repro.streaming.pipeline"),
        ("-m", "repro", "simulate", "--rate", "1024", "--buffer-kb", "20",
         "--duration", "1"),
    ],
    ids=["import-pipeline", "simulate"],
)
def test_simulator_runs_without_the_des_engine(argv):
    modules = imported(fresh_python(*argv))
    assert "repro.streaming.pipeline" in modules
    assert loaded_of(modules, ("repro.sim",)) == [
        "repro.sim", "repro.sim.monitor",
    ]


@pytest.mark.parametrize(
    "module",
    [
        # The refill-cycle loop is the one behavioural simulator.
        "repro.sim.engine", "repro.sim.resources", "repro.devices.mems",
        "repro.devices.disk", "repro.devices.seek",
        # runner.sharding is the one sweep; repro, repro.runner and
        # repro.experiments are the one public surface.
        "repro.analysis.sweep", "repro.analysis.sensitivity", "repro.api",
        "repro.core.pareto",
    ],
)
def test_deleted_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None


def test_table1_loads_no_numpy():
    # Table I is arithmetic on the device config and its geometry; the
    # devices package must not pull in the DRAM model (and numpy) too.
    modules = imported(fresh_python("-c", "import repro.experiments.table1"))
    assert "repro.devices.geometry" in modules
    assert loaded_of(modules, ("numpy", "repro.devices.dram")) == []


def test_bad_flush_chunk_env_does_not_break_import():
    # Read when a sweep is built, not when the module loads.
    fresh_python(
        "-c", "import repro.runner.sharding",
        env_overrides={"REPRO_MERGE_FLUSH_CHUNK": "abc"},
    )


def export_homes(package_name: str) -> list[tuple[str, object]]:
    """``(name, object its home module defines)`` for every export."""
    package = importlib.import_module(package_name)
    homes = []
    for module, names in package._EXPORTS.items():
        home = importlib.import_module(module, package_name)
        if names is None:
            homes.append((module.rpartition(".")[2], home))
        else:
            homes.extend((name, getattr(home, name)) for name in names)
    return homes


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_export_is_its_home_module_object(self, package_name):
        package = importlib.import_module(package_name)
        homes = export_homes(package_name)
        assert sorted(name for name, _ in homes) == sorted(
            set(package.__all__) - {"__version__"}
        )
        listed = dir(package)
        for name, obj in homes:
            assert getattr(package, name) is obj, name
            assert name in listed, name

    def test_star_import_is_clean_with_warnings_as_errors(
        self, package_name
    ):
        fresh_python("-W", "error", "-c", (
            f"from {package_name} import *\n"
            f"import {package_name} as package\n"
            "wrong = [name for name in package.__all__\n"
            "         if globals()[name] is not getattr(package, name)]\n"
            "if wrong:\n"
            "    raise SystemExit(f'star import bound {wrong}')\n"
        ))

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")

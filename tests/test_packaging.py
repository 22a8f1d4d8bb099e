"""Packaging: declared dependencies and imports match, both ways.

A clean ``pip install`` gets only what ``pyproject.toml`` declares, so an
import of an undeclared distribution works here and fails there; and a
runtime dependency the code no longer imports only slows every install.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def project_table() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def distribution_names(requirements: list[str]) -> set[str]:
    """Requirement strings -> bare distribution names, normalised."""
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
        .lower()
        .replace("-", "_")
        for requirement in requirements
    }


def declared_distributions() -> set[str]:
    """Names in ``dependencies`` and every optional extra, normalised."""
    project = project_table()
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    return distribution_names(requirements)


def third_party_imports() -> dict[str, set[str]]:
    """Top-level module -> files importing it, outside the standard library.

    Every import statement counts, including ones inside functions: a
    lazy import still fails on a clean install when the code path runs.
    """
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top in sys.stdlib_module_names or top == PACKAGE.name:
                    continue
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def test_every_third_party_import_is_declared():
    imports = third_party_imports()
    # The models import numpy throughout: a scan without it is looking
    # in the wrong place and would pass vacuously.
    assert "numpy" in imports
    # Import names equal distribution names for everything used so far
    # (numpy); a future import whose distribution is named
    # differently needs a mapping here.
    declared = declared_distributions()
    undeclared = {
        module: sorted(files)
        for module, files in imports.items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not declared: {undeclared}"


def test_every_runtime_dependency_is_imported():
    runtime = distribution_names(project_table().get("dependencies", []))
    assert runtime, "no runtime dependencies declared"
    imported = {module.lower() for module in third_party_imports()}
    unused = sorted(runtime - imported)
    assert not unused, f"declared but never imported: {unused}"


def test_every_benchmark_file_runs_in_ci():
    # pytest does not collect ``bench_*.py``, so a file that no CI step
    # names by path is a file that nothing runs.
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    unnamed = [
        path.name
        for path in benches
        if f"benchmarks/{path.name}" not in workflow
    ]
    assert not unnamed, f"benchmark files no CI step runs: {unnamed}"

"""Start-up footprint: importing the package leaves heavy modules out.

Every real command pays for what ``import repro.cli`` loads.  scipy is
not a dependency, and ``numpy.f2py`` only ever came in through scipy's
array-API shim; together they were about half of start-up.  Each check
runs in a fresh interpreter, because this test session has long since
imported whatever the other tests needed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

FORBIDDEN = ("scipy", "numpy.f2py")

#: The directory holding the ``repro`` package this session imported.
SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_heavy_modules_out(module):
    code = (
        f"import sys, {module}\n"
        f"print([m for m in {FORBIDDEN!r} if m in sys.modules])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]"

"""Importable job targets for runner tests.

Queue workers resolve ``"runner_workers:<name>"`` targets by import, so
everything here must stay module-level and deterministic.
"""

from __future__ import annotations

import os

from repro.config import ibm_mems_prototype, table1_workload
from repro.core.energy import EnergyModel
from repro.units import bits_to_kb


def add(a, b):
    """Deterministic two-argument job."""
    return a + b


def identity(value):
    """Echo job, used for order-preservation checks."""
    return value


def square(x):
    """Deterministic one-argument job."""
    return x * x


def boom():
    """Always fails."""
    raise RuntimeError("boom")


def die():
    """Kill the worker process outright (simulates segfault/OOM)."""
    os._exit(1)


def slow_identity(value, delay_s=0.3):
    """Echo after a delay, to keep a job in flight deterministically."""
    import time

    time.sleep(delay_s)
    return value


def flaky(marker):
    """Fail on the first call, succeed afterwards.

    Cross-process safe: the first attempt creates ``marker`` on disk and
    raises; any later attempt (possibly in another worker) sees the file
    and returns.
    """
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("first attempt fails")
    return 42


def break_even_kb(rate_bps):
    """A real model evaluation (picklable, deterministic)."""
    model = EnergyModel(ibm_mems_prototype(), table1_workload())
    return bits_to_kb(model.break_even_buffer(rate_bps))


def drop_last(values):
    """Mis-sized batch target: returns one entry too few."""
    return list(values)[:-1]


def array_curve(values):
    """Batch target returning raw numpy arrays (the vectorised shape)."""
    import numpy as np

    grid = np.asarray(values, dtype=float)
    return {"double": grid * 2.0, "index": np.arange(len(grid))}


def doubled(values):
    """Batch target returning one float array: one value per point."""
    import numpy as np

    return np.asarray(values, dtype=float) * 2.0


def doubled_short(values):
    """Mis-sized array target: one value too few."""
    return doubled(values)[:-1]


def infeasible_above_two(x):
    """Scalar sweep target that turns infeasible past x=2."""
    from repro.errors import InfeasibleDesignError

    if x > 2:
        raise InfeasibleDesignError("too big")
    return float(x)

"""Batch evaluation of the model core: whole grids per call.

The scalar API answers one operating point at a time; the paper's
artefacts — and the ROADMAP's million-point design-space scans — need
tens of thousands to millions of them.  Every forward model and inverse
now carries an array-native twin (``*_batch`` methods on
:class:`~repro.core.energy.EnergyModel`,
:class:`~repro.core.capacity.CapacityModel`,
:class:`~repro.core.lifetime.LifetimeModel`, and
:meth:`~repro.core.dimensioning.BufferDimensioner.require_batch`) that
evaluates a whole grid in a handful of vectorised passes: the
closed-form inverses directly, the exact sector-layout inverse as a
masked walk that steps every target through its own scalar search,
with the scalar inverse as the fallback past the walk's exact range.
The Figure 2a saw-tooth peak search and the Figure 3a energy-wall
bisection are numpy methods on their classes
(:meth:`~repro.formatting.sector.SectorLayout.best_user_bits_at_most_batch`,
:meth:`~repro.core.design_space.DesignSpaceExplorer.energy_wall_rate_batch`).
Scalar and batch paths agree to float rounding (property-tested), and
infeasible points map to ``inf`` instead of raising — on a grid,
infeasibility is a result.

This module adds the grid-level entry points the campaign runner's
sweep sharding (:mod:`repro.runner.sharding`) imports by dotted path:
one call evaluates one contiguous shard of a rate grid and returns one
numpy column per metric, which the sweep codec packs as it is, so a
sharded million-point scan streams through the result store shard by
shard without a per-point Python object.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..config import (
    DesignGoal,
    MEMSDeviceConfig,
    WorkloadConfig,
    ibm_mems_prototype,
    table1_workload,
)
from .dimensioning import BufferDimensioner, Constraint


@lru_cache(maxsize=4)
def _reference_stack(
    include_latency_floor: bool = True,
) -> tuple[MEMSDeviceConfig, WorkloadConfig, BufferDimensioner]:
    """The Table I device/workload and their dimensioner, built once.

    Shard workers call the grid entry points below once per job;
    memoizing the reference stack means a warm worker re-uses one
    model object graph across every shard it evaluates instead of
    rebuilding configs and solvers per call.  Safe to share: configs
    are frozen dataclasses and the model stack is stateless.
    """
    device = ibm_mems_prototype()
    workload = table1_workload()
    return device, workload, BufferDimensioner(
        device, workload, include_latency_floor=include_latency_floor
    )


@lru_cache(maxsize=1)
def _reference_energy():
    from .energy import EnergyModel

    device, workload, _ = _reference_stack()
    return EnergyModel(device, workload)


def warm_reference_models() -> None:
    """Build the reference configs and model stack in this process.

    The campaign queue installs this as the process-pool initializer so
    every worker pays model construction once, before its first job —
    shard jobs then start computing immediately.
    """
    _reference_stack(True)
    _reference_energy()


def evaluate_rate_grid(
    rate_bps,
    energy_saving: float = 0.80,
    capacity_utilisation: float = 0.88,
    lifetime_years: float = 7.0,
    device: MEMSDeviceConfig | None = None,
    workload: WorkloadConfig | None = None,
    include_latency_floor: bool = True,
) -> dict[str, np.ndarray]:
    """Design-space metrics for a goal over a grid of streaming rates.

    The canonical shard target for
    :func:`~repro.runner.sharding.sharded_sweep_campaign`: importable by
    dotted path, one vectorised pass regardless of grid size.  Defaults
    reproduce the Figure 3a panel on the Table I device and workload.

    Returns one numpy column per metric, aligned with ``rate_bps``:
    ``required_buffer_bits`` / ``energy_buffer_bits`` (float64, ``inf``
    where infeasible), ``feasible`` (bool), and ``dominant`` (str,
    Figure 3 labels, ``"X"`` where infeasible).  The sweep codec packs
    these columns directly; a plain campaign job stores them as lists
    (:func:`~repro.runner.jobs.json_safe`), and ``.tolist()`` gives the
    same lists here.
    """
    if device is None and workload is None:
        device, workload, dimensioner = _reference_stack(
            include_latency_floor
        )
    else:
        device = device if device is not None else ibm_mems_prototype()
        workload = workload if workload is not None else table1_workload()
        dimensioner = BufferDimensioner(
            device, workload, include_latency_floor=include_latency_floor
        )
    goal = DesignGoal(
        energy_saving=energy_saving,
        capacity_utilisation=capacity_utilisation,
        lifetime_years=lifetime_years,
    )
    grid = np.atleast_1d(np.asarray(rate_bps, dtype=float))
    requirement = dimensioner.require_batch(goal, grid)
    # The energy-only curve is the requirement's energy constraint row.
    energy_buffers = requirement.buffer_for(Constraint.ENERGY)
    # The requirement caches its derived arrays read-only; copies keep
    # every returned column writable, like the energy row.
    return {
        "required_buffer_bits": requirement.required_buffer_bits.copy(),
        "energy_buffer_bits": energy_buffers,
        "feasible": requirement.feasible.copy(),
        "dominant": requirement.labels(),
    }


def break_even_curve(
    rate_bps,
    device: MEMSDeviceConfig | None = None,
    workload: WorkloadConfig | None = None,
) -> dict[str, np.ndarray]:
    """Break-even buffer (bits) over a rate grid; shard-target friendly.

    Returns ``{"break_even_bits": <float64 array aligned with
    rate_bps>}``, the same column contract as
    :func:`evaluate_rate_grid`.
    """
    grid = np.atleast_1d(np.asarray(rate_bps, dtype=float))
    if device is None and workload is None:
        model = _reference_energy()
    else:
        from .energy import EnergyModel

        device = device if device is not None else ibm_mems_prototype()
        workload = workload if workload is not None else table1_workload()
        model = EnergyModel(device, workload)
    return {"break_even_bits": model.break_even_buffer_batch(grid)}

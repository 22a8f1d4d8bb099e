"""Deterministic, seedable fault injection for the campaign pipeline.

This package is the pipeline's fault model: a declarative
:class:`FaultPlan` (site pattern × trigger × action) armed per
process, probed by ``fault_site()`` calls threaded through the
scheduler, the store backends, the codec and the merge writer.  See
:mod:`.plan` for the plan format and :mod:`.runtime` for activation
semantics.

Instrumented sites (globs in rules match against these names):

==================  ====================================================
Site                Where it probes (job-id context in parens)
==================  ====================================================
``queue.attempt``   start of every job attempt, worker side
                    (``"<job_id>#<attempt>"``)
``store.append``    backend batch append, ``torn_write`` capable
                    (first record's job id)
``store.iter``      backend scan open (iter / latest-by-key)
``store.get``       backend point lookup (content key)
``codec.unpack``    columnar payload decode
``merge.flush``     ``codec="json"`` merge flush of one point-record chunk
==================  ====================================================

The ``queue.attempt`` context carries the attempt number because
per-rule ``nth`` counters are per-process: a crashed worker's
replacement counts from zero, so ``{"job_id": "shard-3#1",
"action": "crash"}`` (first attempt only) is the trigger shape that
injects exactly one crash no matter how many workers come and go,
letting the retry converge.

Quick start::

    plan = FaultPlan.from_json({"rules": [
        {"site": "queue.attempt", "job_id": "sweep*",
         "action": "crash", "nth": 3},
    ]})
    with active_faults(plan):
        run_campaign(...)

or externally, with zero code changes::

    REPRO_FAULTS=plan.json repro sweep ...
"""

from .plan import (
    ACTION_CRASH,
    ACTION_HANG,
    ACTION_RAISE,
    ACTION_TORN_WRITE,
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    KNOWN_ACTIONS,
    FaultPlan,
    FaultRule,
    coerce_plan,
)
from .runtime import (
    FiredFault,
    InjectedFault,
    activate,
    active_faults,
    active_plan,
    deactivate,
    fault_site,
    faults_active,
    reset,
)

__all__ = [
    "ACTION_CRASH",
    "ACTION_HANG",
    "ACTION_RAISE",
    "ACTION_TORN_WRITE",
    "CRASH_EXIT_CODE",
    "FAULTS_ENV_VAR",
    "KNOWN_ACTIONS",
    "FaultPlan",
    "FaultRule",
    "FiredFault",
    "InjectedFault",
    "activate",
    "active_faults",
    "active_plan",
    "coerce_plan",
    "deactivate",
    "fault_site",
    "faults_active",
    "reset",
]

"""Process-global fault-plan activation and the ``fault_site`` probe.

The probe is the only thing hot paths touch::

    action = fault_site("store.append", job_id=job_id)

With no plan active this is two module-global reads and a ``None``
test — no allocation, no matching, no telemetry — which is what keeps
the disabled overhead unmeasurable.  With a plan active the call finds
the first armed rule matching ``(site, job_id)`` and applies it:
``raise``/``crash``/``hang`` execute right here; ``torn_write``
returns the :class:`FiredFault` for the site to interpret (sites that
cannot tear a write simply ignore the return value).

Activation is process-global:

* :func:`activate` / :func:`deactivate` install or clear a plan
  directly (the ``faults=`` kwarg path);
* the ``REPRO_FAULTS`` environment variable — a plan-file path or the
  inline JSON itself — is consulted lazily on the first probe, which
  is how process-pool workers inherit the parent's plan with no extra
  plumbing;
* :func:`active_faults` is the scoped form: a context manager that
  activates a plan, *exports it into the environment* so child
  processes see it too, and restores both on exit.

Every fire is counted (``faults.fired`` and ``faults.fired.<action>``)
so chaos tests can assert that an injected fault actually happened.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from ..telemetry import metrics
from .plan import (
    ACTION_CRASH,
    ACTION_HANG,
    ACTION_RAISE,
    CRASH_EXIT_CODE,
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultRule,
    coerce_plan,
)


class InjectedFault(IOError):
    """The error a ``raise`` action throws (an ``IOError`` subclass)."""


@dataclass(frozen=True)
class FiredFault:
    """What :func:`fault_site` returns when a rule fired.

    ``raise``/``crash``/``hang`` never return (or return after their
    sleep); only ``torn_write`` actions reach the caller, carrying the
    parameters the site needs to apply them.
    """

    action: str
    site: str
    rule: FaultRule

    @property
    def torn_bytes(self) -> int:
        return self.rule.bytes


class _ArmedRule:
    """One rule plus its per-process trigger state."""

    __slots__ = ("rule", "calls", "fired", "rng")

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.calls = 0
        self.fired = 0
        self.rng = (
            random.Random(rule.seed) if rule.p is not None else None
        )

    def should_fire(self, site: str, job_id: str | None) -> bool:
        rule = self.rule
        if not rule.matches(site, job_id):
            return False
        limit = rule.fire_limit
        if limit and self.fired >= limit:
            return False
        self.calls += 1
        if rule.nth is not None:
            if self.calls != rule.nth:
                return False
        elif self.rng is not None:
            assert rule.p is not None
            if self.rng.random() >= rule.p:
                return False
        self.fired += 1
        return True


class _ActivePlan:
    """A plan armed for this process."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.armed = [_ArmedRule(rule) for rule in plan.rules]

    def check(
        self, site: str, job_id: str | None
    ) -> FiredFault | None:
        for armed in self.armed:
            if not armed.should_fire(site, job_id):
                continue
            rule = armed.rule
            metrics().count("faults.fired")
            metrics().count(f"faults.fired.{rule.action}")
            if rule.action == ACTION_RAISE:
                raise InjectedFault(
                    rule.message
                    or f"injected fault at {site}"
                    + (f" (job {job_id})" if job_id else "")
                )
            if rule.action == ACTION_CRASH:
                os._exit(CRASH_EXIT_CODE)
            if rule.action == ACTION_HANG:
                time.sleep(rule.seconds)
                return None
            return FiredFault(rule.action, site, rule)
        return None


#: Module globals the disabled fast path reads (see module docstring).
_active: _ActivePlan | None = None
_env_checked = False


def _load_env() -> _ActivePlan | None:
    """Arm the plan named by ``REPRO_FAULTS``, once per process."""
    global _active, _env_checked
    _env_checked = True
    value = os.environ.get(FAULTS_ENV_VAR, "").strip()
    if value:
        plan = coerce_plan(value)
        if plan is not None and plan.rules:
            _active = _ActivePlan(plan)
    return _active


def fault_site(
    site: str, job_id: str | None = None
) -> FiredFault | None:
    """Probe one instrumented site; apply the first matching rule.

    Returns ``None`` in the (overwhelmingly common) no-fault case and
    for actions executed in place; returns a :class:`FiredFault` for
    ``torn_write`` actions the site must interpret itself.
    """
    active = _active
    if active is None:
        if _env_checked:
            return None
        active = _load_env()
        if active is None:
            return None
    return active.check(site, job_id)


def faults_active() -> bool:
    """Whether a fault plan is currently armed in this process."""
    if _active is None and not _env_checked:
        _load_env()
    return _active is not None


def active_plan() -> FaultPlan | None:
    """The armed plan, if any."""
    if _active is None and not _env_checked:
        _load_env()
    return _active.plan if _active is not None else None


def activate(
    plan: FaultPlan | Mapping[str, Any] | str | os.PathLike[str],
) -> FaultPlan:
    """Arm a plan for this process (replacing any active one)."""
    global _active, _env_checked
    coerced = coerce_plan(plan)
    assert coerced is not None
    _active = _ActivePlan(coerced)
    _env_checked = True
    return coerced


def deactivate() -> None:
    """Disarm fault injection for this process.

    The environment is deliberately left alone — only :func:`reset`
    (tests) makes the probe re-read ``REPRO_FAULTS``.
    """
    global _active
    _active = None


def reset() -> None:
    """Test hook: disarm and forget the env check, restoring import state."""
    global _active, _env_checked
    _active = None
    _env_checked = False


@contextmanager
def active_faults(
    plan: FaultPlan | Mapping[str, Any] | str | os.PathLike[str] | None,
    *,
    export_env: bool = True,
) -> Iterator[FaultPlan | None]:
    """Scoped activation: arm ``plan``, restore everything on exit.

    With ``export_env`` (default) the plan's inline JSON is written to
    ``REPRO_FAULTS`` for the duration, so process-pool workers spawned
    inside the scope arm the same plan.  ``plan=None`` is a no-op
    scope, which lets callers thread an optional ``faults=`` argument
    straight through.
    """
    coerced = coerce_plan(plan)
    if coerced is None:
        yield None
        return
    global _active, _env_checked
    previous = _active
    previous_checked = _env_checked
    previous_env = os.environ.get(FAULTS_ENV_VAR)
    activate(coerced)
    if export_env:
        os.environ[FAULTS_ENV_VAR] = coerced.dumps()
    try:
        yield coerced
    finally:
        _active = previous
        _env_checked = previous_checked
        if export_env:
            if previous_env is None:
                os.environ.pop(FAULTS_ENV_VAR, None)
            else:
                os.environ[FAULTS_ENV_VAR] = previous_env

"""Declarative fault plans: which site fails, when, and how.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s.  Each rule
names a *site pattern* (``fnmatch`` glob over the instrumented site
names, e.g. ``store.append`` or ``queue.*``), a *trigger* (nth
matching call, seeded probability, and/or a job-id glob), and an
*action* — what the site does when the rule fires:

=============  ==========================================================
Action         Effect at the site
=============  ==========================================================
``raise``      raise ``IOError`` (``message`` overrides the text)
``crash``      ``os._exit(86)`` — kill the worker process hard
``hang``       sleep ``seconds`` (default 30) before continuing
``torn_write``  truncate the write by ``bytes`` (site-interpreted)
=============  ==========================================================

Everything is deterministic and seedable: ``nth`` counts matching
calls per process, and probability triggers draw from a dedicated
``random.Random(seed)`` per rule, so the same plan against the same
call sequence always injects the same faults.  Plans serialise to
plain JSON (``REPRO_FAULTS`` accepts a file path or the inline JSON
itself), which is what lets a pool worker — a different process —
reconstruct its parent's plan from the environment alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError

#: Environment variable naming a plan file (or holding inline JSON).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit code of a ``crash`` action — distinctive in worker post-mortems.
CRASH_EXIT_CODE = 86

ACTION_RAISE = "raise"
ACTION_CRASH = "crash"
ACTION_HANG = "hang"
ACTION_TORN_WRITE = "torn_write"
KNOWN_ACTIONS = (ACTION_RAISE, ACTION_CRASH, ACTION_HANG, ACTION_TORN_WRITE)

#: Default sleep of a ``hang`` action — long enough to trip any sane
#: deadline, short enough that an undeadlined test suite still ends.
DEFAULT_HANG_S = 30.0

#: Default truncation of a ``torn_write`` action.
DEFAULT_TORN_BYTES = 16


@dataclass(frozen=True)
class FaultRule:
    """One site-pattern × trigger × action rule of a plan.

    Attributes
    ----------
    site:
        ``fnmatch`` glob matched against the instrumented site name
        (``queue.attempt``, ``store.append``, ``store.iter``,
        ``store.get``, ``codec.unpack``, ``merge.flush``).
    action:
        One of :data:`KNOWN_ACTIONS`.
    job_id:
        Optional glob over the call's job id; calls without a job id
        never match a rule that sets one.
    nth:
        Fire on exactly the nth matching call (1-based, per process).
    p / seed:
        Fire each matching call with probability ``p``, drawn from a
        per-rule ``random.Random(seed)`` — explicit seed required, so
        a probabilistic plan replays identically.
    times:
        Cap on total fires.  Defaults to 1 for bare and ``nth`` rules
        and to unlimited (0) for probability rules.
    seconds:
        Sleep duration of a ``hang`` action.
    bytes:
        Truncation of a ``torn_write`` action.
    message:
        Error text of a ``raise`` action.
    """

    site: str
    action: str
    job_id: str | None = None
    nth: int | None = None
    p: float | None = None
    seed: int | None = None
    times: int | None = None
    seconds: float = DEFAULT_HANG_S
    bytes: int = DEFAULT_TORN_BYTES
    message: str | None = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ConfigurationError("fault rule needs a site pattern")
        if self.action not in KNOWN_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"known: {KNOWN_ACTIONS}"
            )
        if self.nth is not None and self.nth < 1:
            raise ConfigurationError("fault rule nth must be >= 1")
        if self.p is not None:
            if not (0.0 < self.p <= 1.0):
                raise ConfigurationError(
                    "fault rule p must be in (0, 1]"
                )
            if self.seed is None:
                raise ConfigurationError(
                    "probabilistic fault rules need an explicit seed"
                )
            if self.nth is not None:
                raise ConfigurationError(
                    "fault rule takes nth or p, not both"
                )
        if self.times is not None and self.times < 0:
            raise ConfigurationError("fault rule times must be >= 0")
        if self.seconds < 0 or self.bytes < 0:
            raise ConfigurationError(
                "fault rule seconds/bytes must be >= 0"
            )

    @property
    def fire_limit(self) -> int:
        """Total-fire cap (0 = unlimited)."""
        if self.times is not None:
            return self.times
        return 0 if self.p is not None else 1

    def matches(self, site: str, job_id: str | None) -> bool:
        """Whether this rule's patterns cover one call."""
        if not fnmatchcase(site, self.site):
            return False
        if self.job_id is not None:
            if job_id is None or not fnmatchcase(job_id, self.job_id):
                return False
        return True

    def to_json(self) -> dict[str, Any]:
        """This rule as a plain-JSON mapping (defaults omitted)."""
        out: dict[str, Any] = {"site": self.site, "action": self.action}
        for name in ("job_id", "nth", "p", "seed", "times", "message"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.seconds != DEFAULT_HANG_S:
            out["seconds"] = self.seconds
        if self.bytes != DEFAULT_TORN_BYTES:
            out["bytes"] = self.bytes
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultRule":
        """Build a rule from its JSON mapping (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError("fault rule must be a JSON object")
        known = {
            "site", "action", "job_id", "nth", "p", "seed", "times",
            "seconds", "bytes", "message",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault rule field(s): {sorted(unknown)}"
            )
        kwargs = dict(data)
        kwargs.setdefault("seconds", DEFAULT_HANG_S)
        kwargs.setdefault("bytes", DEFAULT_TORN_BYTES)
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise ConfigurationError(f"bad fault rule: {error}") from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered list of fault rules (first matching armed rule fires)."""

    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_json(self) -> dict[str, Any]:
        return {"rules": [rule.to_json() for rule in self.rules]}

    def dumps(self) -> str:
        """Compact JSON — small enough to travel in an env var."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, data: Any) -> "FaultPlan":
        """Build a plan from ``{"rules": [...]}`` or a bare rule list."""
        if isinstance(data, Mapping):
            rules = data.get("rules", [])
        else:
            rules = data
        if not isinstance(rules, Iterable) or isinstance(rules, str):
            raise ConfigurationError(
                "fault plan needs a 'rules' list of rule objects"
            )
        return cls(tuple(FaultRule.from_json(rule) for rule in rules))

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {error}"
            ) from None
        return cls.from_json(data)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "FaultPlan":
        """Read a plan from a JSON file."""
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError(
                f"cannot read fault plan {os.fspath(path)!r}: {error}"
            ) from None
        return cls.loads(text)


def coerce_plan(
    value: "FaultPlan | Mapping[str, Any] | str | os.PathLike[str] | None",
) -> FaultPlan | None:
    """A :class:`FaultPlan` from whatever a caller handed us.

    Accepts an existing plan, a JSON mapping, inline JSON text, or a
    plan-file path; ``None`` passes through (faults disabled).
    """
    if value is None or isinstance(value, FaultPlan):
        return value
    if isinstance(value, Mapping):
        return FaultPlan.from_json(value)
    text = os.fspath(value)
    if text.lstrip().startswith(("{", "[")):
        return FaultPlan.loads(text)
    return FaultPlan.load(text)

"""Power-state machine with time/energy accounting.

Figure 1b of the paper shows the MEMS device cycling through SEEK,
READ/WRITE, SHUTDOWN, and STANDBY within every refill cycle; an always-on
device instead alternates READ/WRITE with IDLE.  This module gives those
states an explicit, validated machine whose transcript both the analytic
models and the discrete-event simulation can be checked against.

The machine is intentionally strict: a transition not in the legal set
raises, which caught several simulation bugs during development and is
kept as a safety net (the transition table *is* the documented behaviour
of the device).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import MechanicalDeviceConfig
from ..errors import SimulationError


class PowerState(enum.Enum):
    """Operational state of a mechanical storage device."""

    STANDBY = "standby"
    SEEK = "seek"
    READ_WRITE = "read_write"
    IDLE = "idle"
    SHUTDOWN = "shutdown"

    def __str__(self) -> str:
        return self.value


#: Legal state transitions.  STANDBY wakes via SEEK (the device must
#: reposition after parking); READ_WRITE may be followed by more seeking
#: (new request), idling (always-on policy), or SHUTDOWN (buffered policy);
#: SHUTDOWN always parks into STANDBY.
LEGAL_TRANSITIONS: dict[PowerState, frozenset[PowerState]] = {
    PowerState.STANDBY: frozenset({PowerState.SEEK}),
    PowerState.SEEK: frozenset({PowerState.READ_WRITE, PowerState.IDLE}),
    PowerState.READ_WRITE: frozenset(
        {PowerState.SEEK, PowerState.IDLE, PowerState.SHUTDOWN,
         PowerState.READ_WRITE}
    ),
    PowerState.IDLE: frozenset(
        {PowerState.SEEK, PowerState.READ_WRITE, PowerState.SHUTDOWN}
    ),
    PowerState.SHUTDOWN: frozenset({PowerState.STANDBY}),
}

#: Each state's slot in a machine's tallies: advancing the clock indexes
#: lists rather than hashing an enum member.
_STATES = tuple(PowerState)
_SLOT = {state: slot for slot, state in enumerate(_STATES)}
_LEGAL_SLOTS = tuple(
    tuple(target in LEGAL_TRANSITIONS[state] for target in _STATES)
    for state in _STATES
)


@dataclass(frozen=True)
class StateVisit:
    """One completed stay in a power state."""

    state: PowerState
    start_s: float
    duration_s: float
    energy_j: float

    @property
    def end_s(self) -> float:
        """Time at which the device left the state."""
        return self.start_s + self.duration_s


class PowerStateMachine:
    """Tracks state residency and integrates energy for one device.

    Parameters
    ----------
    device:
        Static power/timing description.
    initial_state:
        State the device starts in (STANDBY for the buffered policy,
        IDLE for the always-on reference).
    record_visits:
        Keep a full transcript of visits (useful in tests; costs memory in
        very long simulations).
    """

    def __init__(
        self,
        device: MechanicalDeviceConfig,
        initial_state: PowerState = PowerState.STANDBY,
        record_visits: bool = False,
    ):
        self.device = device
        power_w = {
            PowerState.STANDBY: device.standby_power_w,
            PowerState.SEEK: device.seek_power_w,
            PowerState.READ_WRITE: device.read_write_power_w,
            PowerState.IDLE: device.idle_power_w,
            PowerState.SHUTDOWN: device.shutdown_power_w,
        }
        self._power_w = tuple(power_w[state] for state in _STATES)
        self._state = initial_state
        self._slot = _SLOT[initial_state]
        self._state_entry_time = 0.0
        self._now = 0.0
        self._energy_j = 0.0
        self._time_in_slot = [0.0] * len(_STATES)
        self._energy_in_slot = [0.0] * len(_STATES)
        self._entries = [0] * len(_STATES)
        self._visits: list[StateVisit] | None = [] if record_visits else None

    # -- static power table ---------------------------------------------------

    def power_of(self, state: PowerState) -> float:
        """Electrical power (watts) drawn in ``state``."""
        return self._power_w[_SLOT[state]]

    # -- clock ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current machine time (seconds)."""
        return self._now

    @property
    def state(self) -> PowerState:
        """State the device is currently in."""
        return self._state

    def advance(self, duration_s: float) -> float:
        """Stay in the current state for ``duration_s``; returns energy used."""
        if duration_s < 0:
            raise SimulationError(
                f"cannot advance time by a negative duration ({duration_s!r})"
            )
        slot = self._slot
        energy = self._power_w[slot] * duration_s
        self._now += duration_s
        self._energy_j += energy
        self._time_in_slot[slot] += duration_s
        self._energy_in_slot[slot] += energy
        return energy

    def transition(self, new_state: PowerState) -> None:
        """Move to ``new_state`` (legality-checked, instantaneous)."""
        slot = _SLOT[new_state]
        if not _LEGAL_SLOTS[self._slot][slot]:
            raise SimulationError(
                f"illegal power-state transition {self._state} -> {new_state}"
            )
        if self._visits is not None:
            self._visits.append(
                StateVisit(
                    state=self._state,
                    start_s=self._state_entry_time,
                    duration_s=self._now - self._state_entry_time,
                    energy_j=self.power_of(self._state)
                    * (self._now - self._state_entry_time),
                )
            )
        self._entries[slot] += 1
        self._state = new_state
        self._slot = slot
        self._state_entry_time = self._now

    # -- accounting ---------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        """Energy consumed since construction (joules)."""
        return self._energy_j

    def time_in(self, state: PowerState) -> float:
        """Total seconds spent in ``state``."""
        return self._time_in_slot[_SLOT[state]]

    def energy_in(self, state: PowerState) -> float:
        """Total joules consumed in ``state``."""
        return self._energy_in_slot[_SLOT[state]]

    def transitions_into(self, state: PowerState) -> int:
        """Number of transitions that entered ``state``."""
        return self._entries[_SLOT[state]]

    @property
    def seek_count(self) -> int:
        """Number of seeks performed — spring flex cycles (Equation 5)."""
        return self.transitions_into(PowerState.SEEK)

    @property
    def visits(self) -> tuple[StateVisit, ...]:
        """Transcript of completed visits (empty unless recording)."""
        return tuple(self._visits) if self._visits is not None else ()

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-state ``{"time_s": ..., "energy_j": ...}`` summary."""
        return {
            state.value: {
                "time_s": self._time_in_slot[slot],
                "energy_j": self._energy_in_slot[slot],
            }
            for slot, state in enumerate(_STATES)
        }

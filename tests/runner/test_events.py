"""Event protocol: bit-exact JSON round-trips and bus semantics."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.events import (
    EVENT_SCHEMA,
    TERMINAL_EVENTS,
    Event,
    EventBus,
    JobEvent,
    event_from_json,
    event_to_json,
)

kinds = st.sampled_from(
    ("scheduled", "started", "retry") + TERMINAL_EVENTS
)
text = st.text(max_size=30)
floats = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=10**9)

events = st.builds(
    Event,
    kind=kinds,
    job_id=text,
    attempt=counts,
    duration_s=floats,
    error=st.none() | text,
    total=counts,
    done=counts,
    seq=counts,
    ts=floats,
    mono=floats,
    pid=counts,
    run_id=text,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(events)
    def test_json_round_trip_is_bit_exact(self, event):
        line = event_to_json(event)
        rebuilt = event_from_json(line)
        assert rebuilt == event
        assert event_to_json(rebuilt) == line

    def test_plain_job_event_loads_with_envelope_defaults(self):
        line = event_to_json(JobEvent("finished", "j1", attempt=2))
        rebuilt = event_from_json(line)
        assert isinstance(rebuilt, Event)
        assert rebuilt.kind == "finished"
        assert rebuilt.attempt == 2
        assert rebuilt.schema == EVENT_SCHEMA
        assert rebuilt.seq == 0

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported event schema"):
            event_from_json('{"kind":"x","job_id":"j","schema":"v99"}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            event_from_json("[1,2]")


class TestEventBus:
    def test_publish_stamps_the_envelope(self):
        bus = EventBus(run_id="r1")
        event = bus.publish("started", "j1", attempt=1)
        assert event.schema == EVENT_SCHEMA
        assert event.seq == 1
        assert event.run_id == "r1"
        assert event.pid == os.getpid()
        assert event.ts > 0
        assert event.mono > 0

    def test_sequence_is_monotonic_per_run(self):
        bus = EventBus()
        seqs = [bus.publish("started", f"j{i}").seq for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert bus.seq == 5

    def test_fanout_reaches_every_subscriber_in_order(self):
        seen: list[tuple[str, str]] = []
        bus = EventBus(subscribers=[
            lambda e: seen.append(("a", e.kind)),
            lambda e: seen.append(("b", e.kind)),
        ])
        bus.publish("finished", "j1")
        assert seen == [("a", "finished"), ("b", "finished")]

    def test_a_raising_subscriber_does_not_starve_the_others(self):
        seen: list[str] = []

        def bad(event):
            raise RuntimeError("subscriber bug")

        bus = EventBus(subscribers=[bad, lambda e: seen.append(e.kind)])
        with pytest.raises(RuntimeError, match="subscriber bug"):
            bus.publish("failed", "j1")
        assert seen == ["failed"]

    def test_late_subscribers_see_later_events_only(self):
        seen: list[int] = []
        bus = EventBus()
        bus.publish("scheduled", "j1")
        bus.subscribe(lambda e: seen.append(e.seq))
        bus.publish("started", "j1")
        assert seen == [2]

    def test_a_subscriber_added_mid_fanout_sees_the_next_event_first(self):
        seen: list[tuple[str, int]] = []
        bus = EventBus()

        def late(event):
            seen.append(("late", event.seq))

        def adder(event):
            seen.append(("adder", event.seq))
            if event.seq == 1:
                bus.subscribe(late)

        bus.subscribe(adder)
        bus.publish("started", "j1")
        # The in-flight event went only to the subscribers registered
        # when it was published.
        assert seen == [("adder", 1)]
        bus.publish("finished", "j1")
        assert seen == [("adder", 1), ("adder", 2), ("late", 2)]

    def test_published_events_round_trip_through_json(self):
        bus = EventBus(run_id="r1")
        event = bus.publish("finished", "j1", attempt=1, duration_s=0.5)
        assert event_from_json(event_to_json(event)) == event

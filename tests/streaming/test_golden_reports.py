"""Golden digests of whole simulation reports.

Tolerance tests show that the simulated cycle agrees with Equation (1);
these show that it does not move at all.  Each case runs one pipeline
and hashes every field of its :class:`SimulationReport` (floats by
``repr``, level samples included) together with the power machine's
per-state transition counts and breakdown.  The digests were recorded
from the generator-process pipeline that ran on a generic DES engine
(since deleted), so any rewrite of the pipeline has to reproduce them
bit for bit.  Three were re-recorded since: ``shutdown-tie-end``,
``shutdown-tie-change`` and ``standby-tie-end``, when the loop took one
tie rule (every stream event at or before a wait's end applies before
the controller resumes) instead of the engine's FIFO order.

The VBR cases use traces drawn with stdlib ``random`` (whose
``random()`` sequence is fixed for a seed on every Python), not
:func:`~repro.streaming.traces.markov_trace`, whose numpy generator
may differ between numpy versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro import units
from repro.cli import main
from repro.config import disk_18inch, ibm_mems_prototype, table1_workload
from repro.core.energy import EnergyModel
from repro.devices.states import PowerState
from repro.errors import BufferUnderrunError
from repro.streaming.pipeline import (
    AlwaysOnPipeline,
    PipelineConfig,
    StreamingPipeline,
)
from repro.streaming.traces import RateTrace
from repro.streaming.workload import CBRStream, VBRStream

DEVICE = ibm_mems_prototype()
WORKLOAD = table1_workload()
RATE = 1_024_000.0
BUFFER = units.kb_to_bits(20)

#: The ``sim-validate`` grid and run length.
VALIDATE_BUFFERS_KB = (5, 20, 90)
VALIDATE_RATES_BPS = (128_000.0, 1_024_000.0, 4_096_000.0)
VALIDATE_CYCLES = 150


def report_digest(pipeline, report) -> str:
    """SHA-256 of every report field plus the power machine's tallies."""
    record = {
        field.name: getattr(report, field.name)
        for field in dataclasses.fields(report)
    }
    record["transitions_into"] = {
        state.value: pipeline.power.transitions_into(state)
        for state in PowerState
    }
    record["breakdown"] = pipeline.power.breakdown()
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def random_trace(
    seed: int, segments: int, max_duration_s: float, max_rate_bps: float
) -> RateTrace:
    """A VBR trace with about one pause (zero-rate segment) in four."""
    rng = random.Random(seed)
    durations = tuple(
        0.01 + max_duration_s * rng.random() for _ in range(segments)
    )
    rates = tuple(
        0.0
        if rng.random() < 0.25
        else max_rate_bps * (0.25 + 0.75 * rng.random())
        for _ in range(segments)
    )
    return RateTrace(durations_s=durations, rates_bps=rates)


def cbr_case(policy, buffer_bits, rate, duration, write_fraction=None,
             device=DEVICE, **options):
    """A CBR run as ``simulate_streaming`` / ``simulate_always_on`` build it."""
    if write_fraction is None:
        write_fraction = (
            WORKLOAD.write_fraction if policy is StreamingPipeline else 0.0
        )
    stream = CBRStream(rate_bps=rate, write_fraction=write_fraction)
    config = PipelineConfig(
        device=device, buffer_bits=buffer_bits, stream=stream,
        workload=WORKLOAD, **options,
    )
    return policy(config), duration


def vbr_case(trace, buffer_bits, duration, **options):
    stream = VBRStream(trace=trace, write_fraction=0.0)
    config = PipelineConfig(
        device=DEVICE, buffer_bits=buffer_bits, stream=stream,
        workload=WORKLOAD, **options,
    )
    return StreamingPipeline(config), duration


def planned_best_effort(buffer_bits, rate):
    """One cycle's best-effort batch as the controller plans it."""
    rm = DEVICE.transfer_rate_bps
    return WORKLOAD.best_effort_fraction * (
        buffer_bits * rm / (rate * (rm - rate))
    )


def shutdown_tie_case(rates, extra_s):
    """A stream event lands on the very end of a shutdown.

    Prefilled to the wake threshold, the device seeks at once and
    refills during a pause.  One rate change lands inside the shutdown
    that follows, and the next change (or the stream's end) exactly at
    its end.  Like every stream event at or before a wait's end, that
    last one applies before the controller resumes, although the buffer
    is already below the threshold: the stream's end starts no further
    cycle, and a new rate is in force when the next best-effort batch
    is planned.
    """
    buffer_bits, threshold = 9000.0, 8000.0  # peak 4 Mbit/s x 2 ms seek
    fill = threshold / buffer_bits
    refilled = DEVICE.seek_time_s + (
        buffer_bits - buffer_bits * fill
    ) / DEVICE.transfer_rate_bps
    inside = refilled + DEVICE.shutdown_time_s / 2
    end = refilled + DEVICE.shutdown_time_s
    trace = RateTrace(
        durations_s=(inside, end - inside, 1.0)[: len(rates)],
        rates_bps=rates,
    )
    return vbr_case(
        trace, buffer_bits, end + extra_s, initial_fill_fraction=fill
    )


def standby_tie_end_case():
    """The stream ends exactly at the moment the standby sleep planned.

    The end applies before the controller resumes, and a stream that
    has ended starts no cycle: the device stays in standby although
    the crossing it waited for arrived.
    """
    buffer_bits, rate = 160_000.0, 1_234_567.0
    wake = (rate * DEVICE.seek_time_s - buffer_bits) / -rate
    return cbr_case(
        StreamingPipeline, buffer_bits, rate, wake, write_fraction=0.0
    )


def shutdown_tie_end_planned_case():
    """The stream ends exactly at the end of the first shutdown.

    No change lands during the shutdown this time.  The end applies
    before the controller resumes, as every stream event at or before a
    wait's end does, so no second cycle starts although the buffer is
    below the wake threshold by then.
    """
    buffer_bits, rate = 9000.0, 4_000_000.0
    fill = rate * DEVICE.seek_time_s / buffer_bits
    seeked = min(
        max(buffer_bits * fill + 0.0 - rate * DEVICE.seek_time_s, 0.0),
        buffer_bits,
    )
    rm = DEVICE.transfer_rate_bps
    end = (
        DEVICE.seek_time_s
        + (buffer_bits - seeked) / (rm - rate)
        + planned_best_effort(buffer_bits, rate)
        + DEVICE.shutdown_time_s
    )
    return cbr_case(
        StreamingPipeline, buffer_bits, rate, end, write_fraction=0.0,
        initial_fill_fraction=fill,
    )


def validate_duration(buffer_kb: float, rate: float) -> float:
    model = EnergyModel(DEVICE, WORKLOAD)
    return VALIDATE_CYCLES * model.cycle_time(units.kb_to_bits(buffer_kb), rate)


def build_cases() -> dict:
    """Case id -> zero-argument builder of ``(pipeline, duration_s)``."""
    cases = {}
    for buffer_kb in VALIDATE_BUFFERS_KB:
        for rate in VALIDATE_RATES_BPS:
            cases[f"validate-{buffer_kb}kB-{rate:g}"] = (
                lambda kb=buffer_kb, r=rate: cbr_case(
                    StreamingPipeline, units.kb_to_bits(kb), r,
                    validate_duration(kb, r),
                )
            )
    for buffer_kb, rate in ((5, 128_000.0), (20, 1_024_000.0),
                            (90, 4_096_000.0)):
        cases[f"always-on-{buffer_kb}kB-{rate:g}"] = (
            lambda kb=buffer_kb, r=rate: cbr_case(
                AlwaysOnPipeline, units.kb_to_bits(kb), r,
                validate_duration(kb, r),
            )
        )
    threshold = RATE * DEVICE.seek_time_s / BUFFER
    for name, fraction in (("prefill-half", 0.5),
                           ("prefill-threshold", threshold)):
        cases[name] = lambda f=fraction: cbr_case(
            StreamingPipeline, BUFFER, RATE, 5.0, write_fraction=0.0,
            initial_fill_fraction=f,
        )
    cases["pause-mid"] = lambda: vbr_case(
        RateTrace(durations_s=(10.0, 20.0, 10.0),
                  rates_bps=(RATE, 0.0, RATE)),
        BUFFER, 40.0,
    )
    cases["pause-long"] = lambda: vbr_case(
        RateTrace(durations_s=(1.0, 100.0), rates_bps=(RATE, 0.0)),
        BUFFER, 101.0,
    )
    cases["vbr-short-segments"] = lambda: vbr_case(
        random_trace(11, 40, 0.5, 4_096_000.0), BUFFER, 30.0
    )
    cases["vbr-long-segments"] = lambda: vbr_case(
        random_trace(12, 25, 5.0, 2_048_000.0), units.kb_to_bits(64), 120.0
    )
    cases["record-level"] = lambda: vbr_case(
        random_trace(11, 40, 0.5, 4_096_000.0), BUFFER, 10.0,
        record_level=True,
    )
    cases["shutdown-tie-end"] = lambda: shutdown_tie_case(
        (0.0, 4_000_000.0), 0.0
    )
    cases["shutdown-tie-change"] = lambda: shutdown_tie_case(
        (0.0, 4_000_000.0, 1_000_000.0), 0.5
    )
    cases["standby-tie-end"] = standby_tie_end_case
    cases["shutdown-tie-end-planned"] = shutdown_tie_end_planned_case
    cases["disk"] = lambda: cbr_case(
        StreamingPipeline, 40e6, RATE, 400.0, device=disk_18inch()
    )
    return cases


CASES = build_cases()

#: Case id -> report digest (see the module docstring for their origin).
GOLDEN = {
    "always-on-20kB-1.024e+06": "680be97d1d306cdfd5ebc23af5cb49ee9e0d8aabcec80a7d381be274da580858",
    "always-on-5kB-128000": "a2c2e72538dcd71acef3b739328c18cf534d330296789a3bb1bcd9c9bd3657e1",
    "always-on-90kB-4.096e+06": "f74c9c545c3e0837ca8e66e0ed115b690d5f5f547e4891acbaf37d7d4c46013f",
    "disk": "b962756e280832c79151fb91387d22bbae52261de92ec60a514e52a814948b17",
    "pause-long": "7aa8b80b20a9f43228db5fc68dca08e5e9976597112703046c6d37249ac39a0a",
    "pause-mid": "104e78f944a3c7c3f2f816ac38ab5feb6e18a2f786e914364fbba0579372a3dc",
    "prefill-half": "edb324897df867a4e9b10238c6676816b73fcb781cdbb2817e722dd9c91fba67",
    "prefill-threshold": "6fc9b7d6e89adcffe75c6112a6d7a1794e0a91a4682b5d7be381e2095d4935fe",
    "record-level": "eb386c5874866cad654af0ec503f16186fdd80d24b01b603f7b96f2e970ccfa5",
    "shutdown-tie-change": "116b6437f4aaaf087a4697f2c538fa1b5141cc2f3be0b40c7ed7deca23fed68f",
    "shutdown-tie-end": "558d3577a62e42120ebdd8a7ed94db67925e09a0272889d205fb9645984b9274",
    "shutdown-tie-end-planned": "db4cb08d56b604ed7ba20a7d89775251cc420837936f11bdf368c54eef09f9da",
    "standby-tie-end": "8b7de8bf1170cc96313fe8430988f1825afd7c79e17c735e367bc0c8e8ddd163",
    "validate-20kB-1.024e+06": "46411336c14bbc0a02ebdd87355bb1a677ea9ecab74a9c3dfff11b4feff25372",
    "validate-20kB-128000": "a9f33d08e7d7d6c4a1777ee4add300148d12dd7dbdb48a5a933a2cd5d8b3606e",
    "validate-20kB-4.096e+06": "aa898830e81eeed3bcde2e4e4f9b9f3bede3efeb3cd6191e741ca1e9b608af0b",
    "validate-5kB-1.024e+06": "e9d567ad43871cad35f627ab16bec2bfb1cae8ff38285146c943c3fdd4f27a50",
    "validate-5kB-128000": "05def4d168433da964741f504a5bb7bf0cdab3c2d0d70cfeda1ceec4af476d3d",
    "validate-5kB-4.096e+06": "9f65218547b17073ac4b8889508e3070cf61a6e684d5320a97e04392408b0463",
    "validate-90kB-1.024e+06": "9613d80ff7ca65b6fa462a5b99b27866bce9a0c25fc8b024dd8d93e03058c8e2",
    "validate-90kB-128000": "f0f4c31d4d2b001b00c8e714cb698c74c61d6a8b2bcaf15474bda7243a342a5d",
    "validate-90kB-4.096e+06": "d1a285a1a69d76f04a5478a6e3ae0b8bf71b32e2d92c23c431a3ce652f049f25",
    "vbr-long-segments": "39b63a9e1a43db645cd3500f36771ad6547a19de0d0e834c1df7c5fb19e234ea",
    "vbr-short-segments": "2a6956480725117c8de1acf3197241249513e026a6a6ba592e53e4d6413a4ef8",
}

EMPTY_PREFILL_UNDERRUN = (
    "BufferUnderrunError",
    "buffer underrun at t=0.000000s (level would reach -2048.000 bits "
    "at t=0.002000s)",
    "0.0",
)
BELOW_FLOOR_UNDERRUN = (
    "BufferUnderrunError",
    "buffer underrun at t=0.001580s (level would reach -430.298 bits "
    "at t=0.002000s)",
    "0.0015797872340425532",
)

SIMULATE_STDOUT = """\
policy            : StreamingPipeline
duration          : 5 s
buffer            : 20 kB
streamed          : 640 kB
refill cycles     : 31
seeks             : 31
underruns         : 0
device energy     : 0.1783 J (34.83 nJ/bit)
DRAM energy       : 0.0271 J (5.299 nJ/bit)
duty cycle        : 7.11%
model agreement   : energy 0.30%, cycles 2.15%
"""
SIMULATE_ALWAYS_ON_STDOUT = """\
policy            : AlwaysOnPipeline
duration          : 5 s
buffer            : 20 kB
streamed          : 640 kB
refill cycles     : 31
seeks             : 0
underruns         : 0
device energy     : 0.6096 J (119.06 nJ/bit)
DRAM energy       : 0.0271 J (5.299 nJ/bit)
duty cycle        : 0.98%
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_digest(case):
    pipeline, duration = CASES[case]()
    report = pipeline.run(duration)
    assert report_digest(pipeline, report) == GOLDEN[case]


def test_every_case_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(CASES)


#: Tie case id -> (refill cycles, total best-effort seconds).
TIE_OUTCOMES = {
    # The one cycle runs during the pause, which plans no batch; the
    # end at the next shutdown's end starts no second one.
    "shutdown-tie-end": (1, 0.0),
    # After the pause's cycle, all 144 batches are planned at 1 Mbit/s,
    # the first one too: the change at the shutdown's end is in force
    # before the controller resumes.
    "shutdown-tie-change": (145, 144 * planned_best_effort(9000.0, 1e6)),
    "standby-tie-end": (0, 0.0),
    "shutdown-tie-end-planned": (1, planned_best_effort(9000.0, 4e6)),
}


@pytest.mark.parametrize("case", sorted(TIE_OUTCOMES))
def test_tied_stream_events_apply_before_the_controller_resumes(case):
    pipeline, duration = CASES[case]()
    report = pipeline.run(duration)
    cycles, best_effort_s = TIE_OUTCOMES[case]
    assert report.refill_cycles == cycles
    assert report.best_effort_s == pytest.approx(best_effort_s, rel=1e-12)


def underrun_of(pipeline, duration):
    with pytest.raises(BufferUnderrunError) as excinfo:
        pipeline.run(duration)
    error = excinfo.value
    return type(error).__name__, str(error), repr(error.time)


def test_empty_prefill_underrun_is_pinned():
    pipeline, duration = cbr_case(
        StreamingPipeline, BUFFER, RATE, 5.0, write_fraction=0.0,
        initial_fill_fraction=0.0,
    )
    assert underrun_of(pipeline, duration) == EMPTY_PREFILL_UNDERRUN


def test_below_floor_underrun_is_pinned():
    floor = EnergyModel(DEVICE, WORKLOAD).latency_floor(RATE)
    pipeline, duration = cbr_case(StreamingPipeline, floor * 0.5, RATE, 30.0)
    assert underrun_of(pipeline, duration) == BELOW_FLOOR_UNDERRUN


@pytest.mark.parametrize(
    "extra, expected",
    [((), SIMULATE_STDOUT), (("--always-on",), SIMULATE_ALWAYS_ON_STDOUT)],
    ids=["shutdown", "always-on"],
)
def test_simulate_command_output_is_pinned(capsys, extra, expected):
    argv = ["simulate", "--rate", "1024", "--buffer-kb", "20",
            "--duration", "5", *extra]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected

"""Executable streaming architecture: device + DRAM buffer + workload.

The analytic models of :mod:`repro.core` describe the steady state of the
Figure 1 pipeline; this package *runs* that pipeline, event by event in
one direct event loop, so the closed forms can be validated against an
executable system, and so scenarios the closed forms cannot capture
(variable bit rate, mid-stream rate switches, underruns) can be studied.

* :mod:`repro.streaming.buffer` — fluid buffer with underrun detection,
* :mod:`repro.streaming.workload` — CBR/VBR stream descriptions,
* :mod:`repro.streaming.traces` — synthetic VBR rate traces,
* :mod:`repro.streaming.pipeline` — the refill-cycle simulation,
* :mod:`repro.streaming.stats` — simulation reports and model comparison.
"""

from .buffer import FluidBuffer
from .workload import CBRStream, VBRStream, StreamDescription
from .traces import RateTrace, sinusoidal_trace, markov_trace
from .pipeline import (
    AlwaysOnPipeline,
    PipelineConfig,
    StreamingPipeline,
    simulate_always_on,
    simulate_streaming,
)
from .stats import SimulationReport, ModelComparison

__all__ = [
    "FluidBuffer",
    "StreamDescription",
    "CBRStream",
    "VBRStream",
    "RateTrace",
    "sinusoidal_trace",
    "markov_trace",
    "PipelineConfig",
    "StreamingPipeline",
    "AlwaysOnPipeline",
    "simulate_streaming",
    "simulate_always_on",
    "SimulationReport",
    "ModelComparison",
]

"""Shared benchmark fixtures.

The two benchmark modules time the campaign engine and the batch
evaluation paths under pytest-benchmark and assert their claims (cache
hits, bounded memory, batch speed-ups) on the measured numbers.  Their
files are named ``bench_*.py``, which pytest does not collect by
default, so name each one, as CI does::

    pytest benchmarks/bench_campaign.py --benchmark-only
    pytest benchmarks/bench_batch.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.config import ibm_mems_prototype, table1_workload


@pytest.fixture(scope="session")
def device():
    """The Table I MEMS device (springs 1e8, probes 100 cycles)."""
    return ibm_mems_prototype()


@pytest.fixture(scope="session")
def workload():
    """The Table I workload."""
    return table1_workload()


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark ``func`` with few rounds (experiments are seconds-long)."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=3, iterations=1,
        warmup_rounds=0,
    )


def run_once_slow(benchmark, func, *args, **kwargs):
    """Benchmark a slow (simulation-heavy) target with a single round."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )

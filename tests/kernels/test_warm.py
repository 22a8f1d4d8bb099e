"""Warm paths: the kernel warm-up the pool initializer runs."""

from __future__ import annotations

from repro.kernels import (
    KERNELS_ENV_VAR,
    active_tier,
    reset_kernels,
    warm_kernels,
)
from repro.telemetry import metrics


class TestWarmKernels:
    def test_warm_returns_tier_and_counts_once(self):
        tier = warm_kernels()
        assert tier == active_tier()
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0
        # Idempotent: a second warm neither re-probes nor re-counts.
        assert warm_kernels() == tier
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0

    def test_warm_probes_every_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        reset_kernels()
        warm_kernels()
        counters = metrics().snapshot()["counters"]
        for name in (
            "energy_wall_bisect",
            "sawtooth_best_user_bits",
            "codec_pack",
            "codec_unpack",
        ):
            assert counters[f"kernel.{name}.calls"] >= 1.0

    def test_warm_reference_models_warms_kernels(self):
        from repro.core.batch import warm_reference_models

        warm_reference_models()
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0

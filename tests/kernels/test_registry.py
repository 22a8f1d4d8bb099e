"""Registry mechanics: tier selection, fallback, metering, chunk sizing."""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import (
    CACHE_DIR_ENV_VAR,
    CHUNK_ROWS_ENV_VAR,
    KERNELS_ENV_VAR,
    active_tier,
    batch_chunk_rows,
    default_registry,
    dispatch,
    kernel_cache_dir,
    kernel_info,
    requested_tier,
    reset_kernels,
)
from repro.kernels.numpy_impl import (
    CHUNK_BUDGET_BYTES,
    MAX_CHUNK_ROWS,
    MIN_CHUNK_ROWS,
)
from repro.telemetry import metrics

NUMBA_PRESENT = importlib.util.find_spec("numba") is not None


class TestTierSelection:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV_VAR, raising=False)
        assert requested_tier() == "auto"

    def test_auto_resolves_by_numba_presence(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV_VAR, raising=False)
        reset_kernels()
        expected = "native" if NUMBA_PRESENT else "numpy"
        assert active_tier() == expected

    @pytest.mark.parametrize("tier", ["scalar", "numpy"])
    def test_explicit_tier_wins(self, monkeypatch, tier):
        monkeypatch.setenv(KERNELS_ENV_VAR, tier)
        reset_kernels()
        assert active_tier() == tier

    def test_unknown_tier_is_configuration_error(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "cuda")
        reset_kernels()
        with pytest.raises(ConfigurationError, match="cuda"):
            requested_tier()

    def test_native_request_degrades_cleanly_without_numba(
        self, monkeypatch
    ):
        monkeypatch.setenv(KERNELS_ENV_VAR, "native")
        reset_kernels()
        tier = active_tier()
        if NUMBA_PRESENT:
            assert tier == "native"
        else:
            assert tier == "numpy"
            counters = metrics().snapshot()["counters"]
            assert counters.get("kernel.native.unavailable") == 1.0

    def test_native_probe_reports_import_error(self, monkeypatch):
        registry = default_registry()
        if NUMBA_PRESENT:
            assert registry.native_available()
            assert registry.native_error is None
        else:
            assert not registry.native_available()
            assert "numba" in registry.native_error

    def test_tier_resolution_is_memoized(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "scalar")
        reset_kernels()
        assert active_tier() == "scalar"
        # A later env change is ignored until reset — dispatch must be
        # process-stable, not racy against the environment.
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        assert active_tier() == "scalar"
        reset_kernels()
        assert active_tier() == "numpy"


class TestDispatch:
    def test_unknown_kernel_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            dispatch("fft", np.zeros(3))

    def test_dispatch_meters_calls_ns_and_tier(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        reset_kernels()
        dispatch("codec_pack", np.array([1.0, 2.0]), "<f8")
        snapshot = metrics().snapshot()
        counters = snapshot["counters"]
        assert counters["kernel.codec_pack.calls"] == 1.0
        assert counters["kernel.codec_pack.ns"] > 0.0
        assert snapshot["gauges"]["kernel.tier"] == 1.0

    def test_scalar_tier_gauge_code(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "scalar")
        reset_kernels()
        dispatch("codec_pack", np.array([1]), "<i8")
        assert metrics().snapshot()["gauges"]["kernel.tier"] == 0.0

    def test_all_four_kernels_registered_on_both_base_tiers(self):
        registry = default_registry()
        assert registry.names() == [
            "codec_pack",
            "codec_unpack",
            "energy_wall_bisect",
            "sawtooth_best_user_bits",
        ]
        for name in registry.names():
            tiers = registry.tiers_for(name)
            assert "numpy" in tiers
            assert "scalar" in tiers


class TestCacheDirPinning:
    def test_unpinned_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        assert kernel_cache_dir() is None


class TestAdaptiveChunking:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ROWS_ENV_VAR, "777")
        assert batch_chunk_rows(66) == 777

    def test_adaptive_matches_budget(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ROWS_ENV_VAR, raising=False)
        rows = batch_chunk_rows(66)
        assert rows == min(
            MAX_CHUNK_ROWS,
            max(MIN_CHUNK_ROWS, CHUNK_BUDGET_BYTES // (66 * 8 * 4)),
        )
        # The default saw-tooth width lands near the old fixed 16384.
        assert 8_192 <= rows <= 32_768

    def test_wide_rows_shrink_the_chunk(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ROWS_ENV_VAR, raising=False)
        assert batch_chunk_rows(4096) < batch_chunk_rows(66)
        assert batch_chunk_rows(10**9) == MIN_CHUNK_ROWS
        assert batch_chunk_rows(1) == MAX_CHUNK_ROWS


class TestKernelInfo:
    def test_info_snapshot_shape(self, monkeypatch, tmp_path):
        cache = tmp_path / "kcache"
        cache.mkdir()
        (cache / "a.nbi").write_bytes(b"x" * 10)
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(cache))
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        reset_kernels()
        info = kernel_info()
        assert info["requested_tier"] == "numpy"
        assert info["active_tier"] == "numpy"
        assert info["native_available"] is NUMBA_PRESENT
        assert info["cache_dir"] == str(cache)
        assert info["cache_files"] == 1
        assert info["cache_bytes"] == 10
        assert set(info["kernels"]) == {
            "codec_pack",
            "codec_unpack",
            "energy_wall_bisect",
            "sawtooth_best_user_bits",
        }

"""Tiered hot-kernel engine.

The innermost loops of the batch engine live behind a small registry
(:mod:`repro.kernels.registry`) with up to three implementations per
kernel: ``scalar`` (pure-Python reference), ``numpy`` (vectorised),
and ``native`` (numba JIT twins, optional ``repro[native]`` extra).
``REPRO_KERNELS`` selects the tier; the default ``auto`` probes numba
once and falls back to ``numpy`` cleanly, so the engine never *requires*
the native tier — it only gets faster when it is present.

Call sites dispatch with :func:`dispatch`; process-pool workers call
:func:`warm_kernels` once up front so JIT compilation (when any)
happens before the first real batch.
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np

from ..telemetry import metrics
from .numpy_impl import CHUNK_ROWS_ENV_VAR, batch_chunk_rows
from .registry import (
    CACHE_DIR_ENV_VAR,
    KERNELS_ENV_VAR,
    TIER_AUTO,
    TIER_CHOICES,
    TIER_CODES,
    TIER_NATIVE,
    TIER_NUMPY,
    TIER_SCALAR,
    TIERS,
    KernelRegistry,
    active_tier,
    default_registry,
    dispatch,
    kernel_cache_dir,
    requested_tier,
    reset_kernels,
)

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CHUNK_ROWS_ENV_VAR",
    "KERNELS_ENV_VAR",
    "KernelRegistry",
    "TIER_AUTO",
    "TIER_CHOICES",
    "TIER_CODES",
    "TIER_NATIVE",
    "TIER_NUMPY",
    "TIER_SCALAR",
    "TIERS",
    "active_tier",
    "batch_chunk_rows",
    "default_registry",
    "dispatch",
    "kernel_cache_dir",
    "kernel_info",
    "requested_tier",
    "reset_kernels",
    "warm_kernels",
]

_warmed = False


def warm_kernels() -> str:
    """Pre-resolve the tier and pre-compile every kernel (idempotent).

    On the native tier this triggers numba compilation of every jitted
    kernel against its runtime signature, so worker processes pay JIT
    cost here — once, before the first real batch — instead of inside
    the first attempt.  Metered: ``kernel.warm.calls`` counts warms,
    ``kernel.cache.hit`` / ``kernel.cache.miss`` count how many jitted
    functions loaded from the on-disk cache versus compiled fresh, and
    the ``kernel.tier`` gauge carries the resolved tier.

    Returns the active tier name.
    """
    global _warmed
    registry = default_registry()
    tier = registry.active_tier()
    if _warmed:
        return tier
    _warmed = True
    meter = metrics()
    meter.count("kernel.warm.calls")
    meter.gauge("kernel.tier", TIER_CODES[tier])
    if tier == TIER_NATIVE:
        from . import native

        hits, misses = native.warm_native()
        if hits:
            meter.count("kernel.cache.hit", hits)
        if misses:
            meter.count("kernel.cache.miss", misses)
    else:
        # Cheap probe through the dispatcher: resolves every kernel's
        # implementation so the first real batch hits a warm path.
        registry.call(
            "energy_wall_bisect",
            np.array([0.5]), 1.0e3, 1.0e6, 1.0e7, 1.0, 0.1, 0.5, 0.05,
        )
        registry.call(
            "sawtooth_best_user_bits",
            np.array([4096], dtype=np.int64), 64, 3, 1, 8,
        )
        registry.call("codec_pack", np.array([1.0]), "<f8")
        registry.call("codec_unpack", b"\x00" * 8, "<f8", 1, 0)
    return tier


def reset_warm() -> None:
    """Forget the warm state (tests only)."""
    global _warmed
    _warmed = False


def kernel_info() -> dict[str, Any]:
    """A JSON-able snapshot of the kernel engine for CLI/debugging.

    Covers the requested and resolved tiers, native availability (and
    the import error when unavailable), the pinned JIT cache directory
    with a file/byte census, and the per-kernel tier table.
    """
    registry = default_registry()
    active = registry.active_tier()
    native_ok = registry.native_available()
    cache_dir = kernel_cache_dir()
    cache_files = 0
    cache_bytes = 0
    if cache_dir and os.path.isdir(cache_dir):
        for root, _, files in os.walk(cache_dir):
            for name in files:
                path = os.path.join(root, name)
                try:
                    cache_bytes += os.path.getsize(path)
                    cache_files += 1
                except OSError:
                    continue
    return {
        "requested_tier": requested_tier(),
        "active_tier": active,
        "native_available": native_ok,
        "native_error": registry.native_error,
        "cache_dir": cache_dir,
        "cache_files": cache_files,
        "cache_bytes": cache_bytes,
        "chunk_rows_override": os.environ.get(
            CHUNK_ROWS_ENV_VAR, ""
        ).strip() or None,
        "kernels": {
            name: list(registry.tiers_for(name))
            for name in registry.names()
        },
    }

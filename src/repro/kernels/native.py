"""Native (``numba``) tier: JIT-compiled twins of the hot kernels.

Importing this module requires numba (the optional ``repro[native]``
extra); the registry probes the import exactly once and falls back to
the numpy tier when it fails, so nothing outside this file may import
numba.  All kernels are ``@njit(cache=True)``: compiled machine code
is cached on disk and reloaded by later processes, so a fresh
process-pool worker loads it instead of paying full JIT compilation.

``REPRO_KERNEL_CACHE_DIR`` pins the cache location (exported as
``NUMBA_CACHE_DIR`` *before* numba is first imported; numba reads it
at import time).  :func:`warm_native` compiles every runtime
signature up front and reports how many came from the on-disk cache
versus a fresh compile — the ``kernel.cache.hit`` /
``kernel.cache.miss`` counters.
"""

from __future__ import annotations

import math
import os

from .registry import CACHE_DIR_ENV_VAR

_pinned = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
if _pinned:
    os.makedirs(_pinned, exist_ok=True)
    # setdefault: an explicit NUMBA_CACHE_DIR outranks the repro knob.
    os.environ.setdefault("NUMBA_CACHE_DIR", _pinned)

import numpy as np  # noqa: E402
from numba import njit  # noqa: E402

from .scalar import (  # noqa: E402
    BISECT_ITERATIONS,
    BISECT_RTOL,
    SAWTOOTH_OFFSETS,
)

_DTYPES = {"<f8": np.float64, "<i8": np.int64, "|u1": np.uint8}


@njit(cache=True)
def _wall_bisect(
    goals, rate_min, rate_max, rm, p_rw, p_sb, p_idle, be_frac
):  # pragma: no cover - exercised only when numba is installed
    out = np.empty(goals.shape[0], np.float64)
    for i in range(goals.shape[0]):
        goal = goals[i]
        lo = rate_min
        hi = rate_max
        for _ in range(BISECT_ITERATIONS):
            mid = math.sqrt(lo * hi)
            net = rm - mid
            always_on = p_rw / net + p_idle / mid
            cycle_per_bit = rm / (mid * net)
            transfer = (1.0 / net) * (p_rw - p_sb)
            best_effort = be_frac * cycle_per_bit * (p_rw - p_sb)
            standby = cycle_per_bit * p_sb
            saving = 1.0 - (transfer + best_effort + standby) / always_on
            if saving > goal:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.0 + BISECT_RTOL:
                break
        out[i] = math.sqrt(lo * hi)
    return out


@njit(cache=True)
def _ecc_bits_one(
    user_bits, num, den
):  # pragma: no cover - numba only
    return -((-user_bits * num) // den)


@njit(cache=True)
def _sector_bits_one(
    user_bits, k, c, num, den
):  # pragma: no cover - numba only
    payload = user_bits + _ecc_bits_one(user_bits, num, den)
    return k * (-((-payload) // k) + c)


@njit(cache=True)
def _max_su_one(payload, num, den):  # pragma: no cover - numba only
    if payload <= 0:
        return np.int64(0)
    ratio = num / den
    su = np.int64(payload / (1.0 + ratio)) + 2
    while su > 0 and su + _ecc_bits_one(su, num, den) > payload:
        su -= 1
    while (su + 1) + _ecc_bits_one(su + 1, num, den) <= payload:
        su += 1
    return su


@njit(cache=True)
def _sawtooth(caps, k, c, num, den):  # pragma: no cover - numba only
    out = np.empty(caps.shape[0], np.int64)
    for i in range(caps.shape[0]):
        cap = caps[i]
        payload_cap = cap + _ecc_bits_one(cap, num, den)
        top_column = payload_cap // k
        best_su = cap
        best_util = cap / _sector_bits_one(cap, k, c, num, den)
        for offset in range(SAWTOOTH_OFFSETS):
            column = top_column - offset
            if column < 1:
                column = np.int64(1)
            su = _max_su_one(column * k, num, den)
            if 0 < su <= cap:
                util = su / _sector_bits_one(su, k, c, num, den)
                if util > best_util:
                    best_su = su
                    best_util = util
        out[i] = best_su
    return out


@njit(cache=True)
def _copy_bytes(src, dst):  # pragma: no cover - numba only
    for i in range(src.shape[0]):
        dst[i] = src[i]


def energy_wall_bisect(
    goals, rate_min, rate_max, rm, p_rw, p_sb, p_idle, be_frac
) -> np.ndarray:
    """Native bisection: contiguous lanes into the jitted loop."""
    goals = np.ascontiguousarray(goals, dtype=np.float64)
    flat = goals.ravel()
    out = _wall_bisect(
        flat,
        float(rate_min),
        float(rate_max),
        float(rm),
        float(p_rw),
        float(p_sb),
        float(p_idle),
        float(be_frac),
    )
    return out.reshape(goals.shape)


def sawtooth_best_user_bits(caps, k, c, num, den) -> np.ndarray:
    """Native saw-tooth search: no chunking needed, O(1) temporaries."""
    caps = np.ascontiguousarray(caps, dtype=np.int64)
    flat = caps.ravel()
    out = _sawtooth(
        flat,
        np.int64(k),
        np.int64(c),
        np.int64(num),
        np.int64(den),
    )
    return out.reshape(caps.shape)


def codec_pack(column, dtype: str) -> bytes:
    """Native column pack: jitted byte blit from the typed view."""
    arr = np.ascontiguousarray(np.asarray(column), dtype=dtype)
    src = arr.view(np.uint8).reshape(-1)
    out = np.empty(src.shape[0], dtype=np.uint8)
    _copy_bytes(src, out)
    return out.tobytes()


def codec_unpack(
    blob: bytes, dtype: str, count: int, offset: int
) -> np.ndarray:
    """Native column unpack: jitted byte blit into a fresh array."""
    itemsize = np.dtype(dtype).itemsize
    src = np.frombuffer(
        blob, dtype=np.uint8, count=count * itemsize, offset=offset
    )
    out = np.empty(count, dtype=_DTYPES[dtype])
    _copy_bytes(src, out.view(np.uint8).reshape(-1))
    return out


_JITTED = (_wall_bisect, _ecc_bits_one, _sector_bits_one, _max_su_one,
           _sawtooth, _copy_bytes)

_warm_result: tuple[int, int] | None = None


def warm_native() -> tuple[int, int]:
    """Compile every runtime signature; report ``(cache_hits, misses)``.

    Called once per process (by ``warm_kernels``): later calls return
    ``(0, 0)`` so the cache counters are never double-counted.  Hit
    and miss counts come from numba's per-dispatcher compile stats
    when available, with a cache-directory file census as the
    fallback.
    """
    global _warm_result
    if _warm_result is not None:
        return 0, 0
    files_before = _cache_file_count()
    energy_wall_bisect(
        np.array([0.5]), 1.0e3, 1.0e6, 1.0e7, 1.0, 0.1, 0.5, 0.05
    )
    sawtooth_best_user_bits(np.array([4096], dtype=np.int64), 64, 3, 1, 8)
    codec_pack(np.array([1.0]), "<f8")
    codec_unpack(b"\x00" * 8, "<f8", 1, 0)
    hits = misses = 0
    counted = False
    for fn in _JITTED:
        stats = getattr(fn, "stats", None)
        if stats is None:
            continue
        counted = True
        hits += sum(getattr(stats, "cache_hits", {}).values())
        misses += sum(getattr(stats, "cache_misses", {}).values())
    if not counted:
        grew = _cache_file_count() - files_before
        if grew > 0:
            misses = grew
        else:
            hits = len(_JITTED)
    _warm_result = (hits, misses)
    return _warm_result


def _cache_file_count() -> int:
    """Compiled-artifact files under the pinned cache dir (heuristic)."""
    root = os.environ.get("NUMBA_CACHE_DIR", "").strip()
    if not root or not os.path.isdir(root):
        return 0
    total = 0
    for _, _, files in os.walk(root):
        total += sum(1 for name in files if name.endswith(".nbc"))
    return total


def register_native(registry) -> None:
    """Register every native-tier kernel on ``registry``."""
    registry.register("energy_wall_bisect", "native", energy_wall_bisect)
    registry.register(
        "sawtooth_best_user_bits", "native", sawtooth_best_user_bits
    )
    registry.register("codec_pack", "native", codec_pack)
    registry.register("codec_unpack", "native", codec_unpack)

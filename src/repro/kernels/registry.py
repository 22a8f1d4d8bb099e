"""Kernel registry and tiered dispatch.

The three innermost loops of the batch engine — the log-domain
boundary bisection, the fig2a saw-tooth peak search, and the codec
column pack/unpack — live here as *kernels*: named functions over
plain ndarrays and scalars with up to three registered implementations
("tiers") each:

``scalar``
    the pure-Python reference — slow, obvious, the ground truth the
    parity suite checks the other tiers against,
``numpy``
    the vectorised implementation (the code that used to live inline
    at each call site),
``native``
    ``numba``-compiled twins (optional ``repro[native]`` extra); the
    module probing and JIT cache live in :mod:`repro.kernels.native`.

Tier selection is process-wide via ``REPRO_KERNELS``:

========  ==============================================================
``auto``  (default) ``native`` when numba imports cleanly, else ``numpy``
``native``  force native; falls back to ``numpy`` (and counts
            ``kernel.native.unavailable``) when numba is missing
``numpy``   force the vectorised tier
``scalar``  force the reference tier (parity debugging)
========  ==============================================================

Importability is probed exactly once per process and memoized; a
missing or broken numba can therefore never break a run — tier-1 CI
stays dependency-light by construction.  Every dispatch is metered:
``kernel.<name>.calls`` / ``kernel.<name>.ns`` counters and a
``kernel.tier`` gauge (0 scalar / 1 numpy / 2 native) in the process
:class:`~repro.telemetry.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from ..errors import ConfigurationError
from ..telemetry import metrics

#: Environment variable selecting the kernel tier for this process.
KERNELS_ENV_VAR = "REPRO_KERNELS"
#: Environment variable pinning the numba on-disk JIT cache directory
#: (exported as ``NUMBA_CACHE_DIR`` before numba is first imported).
CACHE_DIR_ENV_VAR = "REPRO_KERNEL_CACHE_DIR"

TIER_SCALAR = "scalar"
TIER_NUMPY = "numpy"
TIER_NATIVE = "native"
TIER_AUTO = "auto"

#: Real (registrable) tiers, fastest first.
TIERS = (TIER_NATIVE, TIER_NUMPY, TIER_SCALAR)
#: Accepted ``REPRO_KERNELS`` values.
TIER_CHOICES = (TIER_AUTO,) + TIERS

#: Numeric codes for the ``kernel.tier`` gauge.
TIER_CODES = {TIER_SCALAR: 0.0, TIER_NUMPY: 1.0, TIER_NATIVE: 2.0}

#: Per-tier fallback chains: a kernel missing its preferred tier
#: degrades one tier at a time, never silently upgrades.
_FALLBACK = {
    TIER_NATIVE: (TIER_NATIVE, TIER_NUMPY, TIER_SCALAR),
    TIER_NUMPY: (TIER_NUMPY, TIER_SCALAR),
    TIER_SCALAR: (TIER_SCALAR,),
}


def requested_tier() -> str:
    """The tier ``REPRO_KERNELS`` asks for (``auto`` when unset)."""
    value = os.environ.get(KERNELS_ENV_VAR, "").strip().lower() or TIER_AUTO
    if value not in TIER_CHOICES:
        known = ", ".join(TIER_CHOICES)
        raise ConfigurationError(
            f"unknown kernel tier {value!r} in ${KERNELS_ENV_VAR}; "
            f"known: {known}"
        )
    return value


def kernel_cache_dir() -> str | None:
    """The pinned JIT cache directory, if ``REPRO_KERNEL_CACHE_DIR`` is set."""
    value = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    return value or None


class KernelRegistry:
    """Named kernels with per-tier implementations and metered dispatch."""

    def __init__(self) -> None:
        self._impls: dict[str, dict[str, Callable[..., Any]]] = {}
        self._active: str | None = None
        self._native_probed = False
        self._native_error: str | None = None

    # -- registration ------------------------------------------------------

    def register(
        self, name: str, tier: str, fn: Callable[..., Any]
    ) -> None:
        """Register one implementation of one kernel."""
        if tier not in TIERS:
            raise ConfigurationError(
                f"unknown kernel tier {tier!r}; known: {TIERS}"
            )
        self._impls.setdefault(name, {})[tier] = fn

    def names(self) -> list[str]:
        """All registered kernel names, sorted."""
        return sorted(self._impls)

    def tiers_for(self, name: str) -> tuple[str, ...]:
        """Tiers with an implementation registered for ``name``."""
        impls = self._impls.get(name, {})
        return tuple(tier for tier in TIERS if tier in impls)

    # -- tier resolution ---------------------------------------------------

    def native_available(self) -> bool:
        """Whether the native tier imports cleanly (probed once)."""
        if not self._native_probed:
            self._native_probed = True
            try:
                from . import native

                native.register_native(self)
                self._native_error = None
            except Exception as error:  # noqa: BLE001 - any import break
                self._native_error = f"{type(error).__name__}: {error}"
        return self._native_error is None

    @property
    def native_error(self) -> str | None:
        """Why the native tier is unavailable (``None`` when it is)."""
        self.native_available()
        return self._native_error

    def active_tier(self) -> str:
        """The tier this process dispatches to (resolved once)."""
        if self._active is None:
            wanted = requested_tier()
            if wanted == TIER_AUTO:
                self._active = (
                    TIER_NATIVE if self.native_available() else TIER_NUMPY
                )
            elif wanted == TIER_NATIVE and not self.native_available():
                # An explicit native request without numba degrades
                # cleanly — and audibly, via the counter.
                metrics().count("kernel.native.unavailable")
                self._active = TIER_NUMPY
            else:
                self._active = wanted
        return self._active

    def resolve(self, name: str) -> tuple[Callable[..., Any], str]:
        """The implementation and tier one dispatch of ``name`` uses."""
        impls = self._impls.get(name)
        if impls is None:
            known = ", ".join(self.names())
            raise ConfigurationError(
                f"unknown kernel {name!r}; known: {known}"
            )
        for tier in _FALLBACK[self.active_tier()]:
            fn = impls.get(tier)
            if fn is not None:
                return fn, tier
        raise ConfigurationError(
            f"kernel {name!r} has no implementation at or below tier "
            f"{self.active_tier()!r}"
        )

    def reset(self) -> None:
        """Forget the resolved tier and native probe (tests only)."""
        self._active = None
        self._native_probed = False
        self._native_error = None

    # -- dispatch ----------------------------------------------------------

    def call(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Run one kernel on the active tier, metered.

        Counters: ``kernel.<name>.calls`` and ``kernel.<name>.ns``
        (cumulative wall nanoseconds); gauge ``kernel.tier`` carries
        the numeric tier code of the implementation that actually ran.
        """
        fn, tier = self.resolve(name)
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        registry = metrics()
        registry.count(f"kernel.{name}.calls")
        registry.count(
            f"kernel.{name}.ns", time.perf_counter_ns() - start
        )
        registry.gauge("kernel.tier", TIER_CODES[tier])
        return result


#: The process-global registry every call site dispatches through.
_REGISTRY: KernelRegistry | None = None


def default_registry() -> KernelRegistry:
    """This process's kernel registry, built (and populated) lazily."""
    global _REGISTRY
    if _REGISTRY is None:
        registry = KernelRegistry()
        from . import numpy_impl, scalar

        scalar.register_scalar(registry)
        numpy_impl.register_numpy(registry)
        _REGISTRY = registry
    return _REGISTRY


def dispatch(name: str, *args: Any, **kwargs: Any) -> Any:
    """Run a kernel by name on the process-wide registry."""
    return default_registry().call(name, *args, **kwargs)


def active_tier() -> str:
    """The tier this process resolved to (probing native if needed)."""
    return default_registry().active_tier()


def reset_kernels() -> None:
    """Drop the resolved tier so the next dispatch re-reads the env."""
    if _REGISTRY is not None:
        _REGISTRY.reset()

"""Capacity model: buffer size -> capacity utilisation (§III.B).

The streaming buffer and the formatted sector size are coupled: a sector's
worth of user data must fit in the buffer (``B >= Su``), so a device that
wants large sectors — and hence few synchronisation bits and high formatted
capacity — forces a large streaming buffer.  Following §IV.C the model
identifies ``Su = B``: the device is formatted with sectors exactly one
buffer in size, the best capacity the buffer admits.

This module adapts the exact integer arithmetic of
:mod:`repro.formatting.sector` to the buffer-centric API used by the
dimensioning and design-space layers.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import MEMSDeviceConfig
from ..errors import ConfigurationError, InfeasibleDesignError
from ..formatting.ecc import FractionalECC
from ..formatting.layout import DeviceLayout, FormattedCapacity
from ..formatting.sector import SectorLayout


class CapacityModel:
    """Equations (2)-(4) as functions of the streaming buffer size.

    Parameters
    ----------
    device:
        MEMS device whose striping width, sync bits, and ECC fraction
        define the sector layout.
    layout:
        Optional explicit :class:`~repro.formatting.sector.SectorLayout`
        override (for ablations with other ECC schemes).
    """

    def __init__(self, device: MEMSDeviceConfig, layout: SectorLayout | None = None):
        self.device = device
        if layout is None:
            layout = SectorLayout(
                stripe_width=device.active_probes,
                sync_bits_per_subsector=device.sync_bits_per_subsector,
                ecc=FractionalECC(device.ecc_numerator, device.ecc_denominator),
            )
        self.layout = layout
        self.device_layout = DeviceLayout(device, layout)

    # -- forward ----------------------------------------------------------

    def _buffer_to_user_bits(self, buffer_bits: float) -> int:
        if buffer_bits < 1:
            raise ConfigurationError(
                f"buffer must be at least 1 bit, got {buffer_bits!r}"
            )
        return int(math.floor(buffer_bits))

    def sector_bits(self, buffer_bits: float) -> int:
        """Stored sector size ``S`` (bits) when formatting with ``Su = B``."""
        return self.layout.sector_bits(self._buffer_to_user_bits(buffer_bits))

    def subsector_bits(self, buffer_bits: float) -> int:
        """Per-probe subsector size ``s`` (bits) for ``Su = B``."""
        return self.layout.subsector_bits(self._buffer_to_user_bits(buffer_bits))

    def utilisation(self, buffer_bits: float) -> float:
        """Capacity utilisation ``u`` attainable with a buffer of ``B`` bits."""
        return self.layout.utilisation(self._buffer_to_user_bits(buffer_bits))

    def best_utilisation(self, buffer_bits: float) -> float:
        """Best Equation (4) utilisation over all sector sizes ``Su <= B``.

        The saw-tooth of Equation (4) means formatting with the *largest*
        sector the buffer admits is occasionally slightly worse than a peak
        just below it; designers would pick the peak.  This is the
        per-sector figure of the paper; whole-device numbers (which also
        lose the sub-sector tail of the medium) live on
        :attr:`device_layout`.
        """
        best_su = self.layout.best_user_bits_at_most(
            self._buffer_to_user_bits(buffer_bits)
        )
        return self.layout.utilisation(best_su)

    def formatted_capacity(self, buffer_bits: float) -> FormattedCapacity:
        """Whole-device bit budget when formatting with ``Su = B``."""
        return self.device_layout.format_with_sector(
            self._buffer_to_user_bits(buffer_bits)
        )

    def user_capacity_bits(self, buffer_bits: float) -> float:
        """Formatted user capacity (bits) of the device for ``Su = B``."""
        return self.formatted_capacity(buffer_bits).user_bits

    @property
    def utilisation_supremum(self) -> float:
        """Asymptotic utilisation limit, ``1 / (1 + ECC ratio)``."""
        return self.layout.utilisation_supremum

    # -- batch fast paths ---------------------------------------------------

    def _buffers_to_user_bits_batch(self, buffer_bits) -> np.ndarray:
        buffers = np.asarray(buffer_bits, dtype=float)
        if buffers.size and not bool(
            (np.isfinite(buffers) & (buffers >= 1)).all()
        ):
            # Finiteness matters: an inf buffer (e.g. an infeasible
            # requirement fed back in) would cast to INT64_MIN silently.
            raise ConfigurationError("buffers must be finite and >= 1 bit")
        return np.floor(buffers).astype(np.int64)

    def sector_bits_batch(self, buffer_bits) -> np.ndarray:
        """Vectorised :meth:`sector_bits` over a buffer grid (``Su = B``)."""
        return self.layout.sector_bits_batch(
            self._buffers_to_user_bits_batch(buffer_bits)
        )

    def utilisation_batch(self, buffer_bits) -> np.ndarray:
        """Vectorised Equation (4) utilisation over a buffer grid."""
        user_bits = self._buffers_to_user_bits_batch(buffer_bits)
        return user_bits / self.layout.sector_bits_batch(user_bits)

    def best_utilisation_batch(self, buffer_bits) -> np.ndarray:
        """Vectorised :meth:`best_utilisation` over a buffer grid.

        The Figure 2a capacity curve in one pass: for every buffer the
        nearest saw-tooth peak at or below it is located (same candidate
        set as the scalar search) and its Equation (4) utilisation
        returned by
        :meth:`~repro.formatting.sector.SectorLayout.best_user_bits_at_most_batch`.
        """
        best = self.layout.best_user_bits_at_most_batch(
            self._buffers_to_user_bits_batch(buffer_bits)
        )
        return best / self.layout.sector_bits_batch(best)

    def min_buffer_for_utilisation_batch(self, targets) -> np.ndarray:
        """Vectorised capacity inverse over a grid of utilisation targets.

        Unlike the scalar inverse, unreachable targets map to ``inf``
        instead of raising — on a grid, infeasibility is a result.
        """
        return self.layout.min_user_bits_for_utilisation_batch(
            np.asarray(targets, dtype=float)
        )

    # -- inverse ------------------------------------------------------------

    def min_buffer_for_utilisation(self, target: float) -> float:
        """Smallest buffer (bits) allowing a format with utilisation >= target.

        This is the capacity constraint ``C`` of §IV.C, inverted.  Raises
        :class:`~repro.errors.InfeasibleDesignError` when the target is not
        below the ECC-imposed supremum.
        """
        return float(self.layout.min_user_bits_for_utilisation(target))

    def max_utilisation_with_buffer(self, buffer_bits: float) -> float:
        """Alias of :meth:`best_utilisation` (reads better at call sites)."""
        return self.best_utilisation(buffer_bits)

    def feasible(self, target: float) -> bool:
        """True when some finite buffer reaches utilisation ``target``."""
        try:
            self.min_buffer_for_utilisation(target)
        except InfeasibleDesignError:
            return False
        return True

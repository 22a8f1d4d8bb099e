"""Probe-array scan geometry.

The Table I device is a 64 x 64 cantilever array over a shared sled; every
probe scans its private 100 x 100 µm field while the sled moves.  The paper
abstracts all of this into a constant 2 ms seek and a 100 kbps per-probe
rate; this module keeps the underlying geometry explicit so that

* the Table I abstraction can be *derived* rather than asserted
  (bit pitch from areal density, track counts, raw capacity), and
* technology scaling (:mod:`repro.devices.scaling`) can scale the
  medium (density, field size, probe count).

Geometry conventions: bits are laid out on horizontal *tracks* inside each
probe field, on an isotropic bit cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import units
from ..errors import ConfigurationError


@dataclass(frozen=True)
class ProbeArrayGeometry:
    """Static geometry of a probe-storage medium.

    Attributes
    ----------
    rows, cols:
        Probe-array dimensions (Table I: 64 x 64).
    field_x_um, field_y_um:
        Scan field of one probe, micrometres (Table I: 100 x 100).
    areal_density_tb_per_in2:
        Medium areal density; the paper's §I quotes > 1 Tb/in^2 for MEMS
        storage, which with 64 x 64 fields of 100 x 100 µm gives the right
        order for the 120 GB Table I capacity.
    """

    rows: int = 64
    cols: int = 64
    field_x_um: float = 100.0
    field_y_um: float = 100.0
    areal_density_tb_per_in2: float = 1.0

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError("probe array dimensions must be positive")
        if self.field_x_um <= 0 or self.field_y_um <= 0:
            raise ConfigurationError("probe field dimensions must be positive")
        if self.areal_density_tb_per_in2 <= 0:
            raise ConfigurationError("areal density must be positive")

    # -- derived scalar geometry ------------------------------------------------

    @property
    def probe_count(self) -> int:
        """Total probes in the array."""
        return self.rows * self.cols

    @property
    def field_area_m2(self) -> float:
        """Area of one probe field in square metres."""
        return (self.field_x_um * 1e-6) * (self.field_y_um * 1e-6)

    @property
    def total_area_m2(self) -> float:
        """Total scanned medium area (all fields) in square metres."""
        return self.field_area_m2 * self.probe_count

    @property
    def footprint_mm2(self) -> float:
        """Medium footprint in mm^2 (the paper's §I quotes 41 mm^2)."""
        return self.total_area_m2 * 1e6

    @property
    def bits_per_m2(self) -> float:
        """Areal density in bits per square metre."""
        return units.terabit_per_in2_to_bits_per_m2(
            self.areal_density_tb_per_in2
        )

    @property
    def bit_pitch_m(self) -> float:
        """Linear bit pitch assuming an isotropic bit cell (metres)."""
        return 1.0 / math.sqrt(self.bits_per_m2)

    @property
    def bit_pitch_nm(self) -> float:
        """Linear bit pitch in nanometres."""
        return self.bit_pitch_m * 1e9

    # -- per-field layout ---------------------------------------------------------

    @property
    def bits_per_track(self) -> int:
        """Bits along one track of a probe field."""
        return int((self.field_x_um * 1e-6) / self.bit_pitch_m)

    @property
    def tracks_per_field(self) -> int:
        """Tracks stacked in one probe field."""
        return int((self.field_y_um * 1e-6) / self.bit_pitch_m)

    @property
    def bits_per_field(self) -> int:
        """Raw bit capacity of one probe field."""
        return self.bits_per_track * self.tracks_per_field

    @property
    def raw_capacity_bits(self) -> int:
        """Raw medium capacity over all probe fields (bits)."""
        return self.bits_per_field * self.probe_count

    @property
    def raw_capacity_gb(self) -> float:
        """Raw medium capacity in decimal gigabytes."""
        return units.bits_to_gb(self.raw_capacity_bits)

    def density_for_capacity(self, capacity_bits: float) -> float:
        """Areal density (Tb/in^2) needed to store ``capacity_bits``.

        Solves the inverse problem: Table I asserts 120 GB; this reports
        the density that assertion implies for this geometry.
        """
        if capacity_bits <= 0:
            raise ConfigurationError("capacity must be positive")
        bits_per_m2 = capacity_bits / self.total_area_m2
        return bits_per_m2 * units.M2_PER_IN2 / units.TERA

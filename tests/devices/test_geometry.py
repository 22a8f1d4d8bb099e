"""Probe-array geometry tests."""

from __future__ import annotations

import pytest

from repro.devices.geometry import ProbeArrayGeometry
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def geometry():
    return ProbeArrayGeometry()  # Table I defaults


class TestScalars:
    def test_probe_count(self, geometry):
        assert geometry.probe_count == 4096

    def test_footprint_matches_paper_41mm2(self, geometry):
        # §I quotes a 41 mm^2 footprint; 4096 fields of 100x100 µm give
        # 40.96 mm^2.
        assert geometry.footprint_mm2 == pytest.approx(40.96)

    def test_field_area(self, geometry):
        assert geometry.field_area_m2 == pytest.approx(1e-8)

    def test_bit_pitch_at_1tb_in2(self, geometry):
        # 1 Tb/in^2 -> pitch = sqrt(in^2 / 1e12) ~ 25.4 nm.
        assert geometry.bit_pitch_nm == pytest.approx(25.4, rel=0.001)

    def test_raw_capacity_order(self, geometry):
        # ~40.96 mm^2 at 1 Tb/in^2 ~ 63.5 Gbit... per-field derivation
        # loses partial tracks; stay within 5%.
        expected_bits = geometry.total_area_m2 * geometry.bits_per_m2
        assert geometry.raw_capacity_bits == pytest.approx(
            expected_bits, rel=0.05
        )

    def test_density_for_capacity_round_trip(self, geometry):
        capacity = 9.6e11  # 120 GB
        density = geometry.density_for_capacity(capacity)
        scaled = ProbeArrayGeometry(areal_density_tb_per_in2=density)
        assert scaled.total_area_m2 * scaled.bits_per_m2 == pytest.approx(
            capacity
        )

    def test_table1_density_implied(self, geometry):
        # 120 GB over 40.96 mm^2 ~ 15 Tb/in^2 — the "> 1 Tb/in^2" of §I
        # with headroom (the prototype stores more than a demo density).
        density = geometry.density_for_capacity(9.6e11)
        assert density > 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ProbeArrayGeometry(rows=0)
        with pytest.raises(ConfigurationError):
            ProbeArrayGeometry(field_x_um=-1)
        with pytest.raises(ConfigurationError):
            ProbeArrayGeometry(areal_density_tb_per_in2=0)
        with pytest.raises(ConfigurationError):
            geometry = ProbeArrayGeometry()
            geometry.density_for_capacity(0)


class TestLayout:
    def test_tracks_and_bits_positive(self, geometry):
        assert geometry.bits_per_track > 0
        assert geometry.tracks_per_field > 0

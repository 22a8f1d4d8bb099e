"""Batch/scalar parity of the three hot loops: the saw-tooth peak search,
the energy-wall bisection and the codec's column blit.

Each runs as one numpy path on its class or module and is compared with
a scalar oracle: ``SectorLayout.best_user_bits_at_most`` for the
saw-tooth, a per-goal bisection over ``EnergyModel.max_energy_saving``
for the wall, and ``struct`` for the codec's byte layout.  Grids include
NaN, infinity and denormal lanes, and caps up to 2**48 — large enough to
stress the float guess in the saw-tooth search, small enough that every
intermediate stays exact in int64.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DesignGoal, ibm_mems_prototype, table1_workload
from repro.core.design_space import DesignSpaceExplorer
from repro.formatting.ecc import ECCScheme, FractionalECC, NoECC
from repro.formatting.sector import SectorLayout
from repro.runner.codec import pack_series, unpack_columns

# The path under test, by name.  Each loop keeps one numpy
# implementation; the id is the one these checks had when the loops
# also ran on other tiers.
PATHS = ["numpy"]

# Table I operating point (ibm_mems_prototype / table1_workload).
EXPLORER = DesignSpaceExplorer(ibm_mems_prototype(), table1_workload())
RATE_MIN = EXPLORER.workload.stream_rate_min_bps
RATE_MAX = EXPLORER.workload.stream_rate_max_bps

# Goal lanes: ordinary fractions plus the pathologies — NaN, +/-inf,
# denormals, and goals outside the reachable saving range.
goal_values = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 0.0]
    ),
)
goal_arrays = st.lists(goal_values, min_size=1, max_size=40).map(
    lambda vals: np.array(vals, dtype=np.float64)
)

cap_arrays = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=2**16),
        st.integers(min_value=1, max_value=2**48),
    ),
    min_size=1,
    max_size=40,
).map(lambda vals: np.array(vals, dtype=np.int64))

ecc_schemes = st.sampled_from(
    [
        FractionalECC(numerator=1, denominator=8),
        NoECC(),
        FractionalECC(numerator=1, denominator=4),
        FractionalECC(numerator=3, denominator=16),
    ]
)
stripe_widths = st.sampled_from([64, 512, 1024])
sync_bits = st.integers(min_value=0, max_value=4)

# A quiet NaN with a non-canonical payload and a sign-bit NaN.
_ODD_NANS = [
    struct.unpack("<d", struct.pack("<Q", bits))[0]
    for bits in (0x7FF8000000000123, 0xFFF0000000000001)
]
f8_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from(
        [5e-324, -5e-324, -0.0, 2.2e-308, 1.7976931348623157e308, *_ODD_NANS]
    ),
)
i8_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), -(2**63 - 1), 2**63 - 1, 0, -1]),
)


def _wall_reference(goal: float) -> float:
    """One goal's wall by scalar bisection, with the batch's stop rule."""
    energy = EXPLORER.dimensioner.solver.energy
    if goal < energy.max_energy_saving(RATE_MAX):
        return math.inf
    if goal >= energy.max_energy_saving(RATE_MIN):
        return RATE_MIN
    lo, hi = RATE_MIN, RATE_MAX
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if energy.max_energy_saving(mid) > goal:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return math.sqrt(lo * hi)


def _roundtrip(column):
    """Pack ``column`` beside an f8 grid; return its bytes and decoding."""
    payload = pack_series(np.arange(len(column), dtype=np.float64), {"m": column})
    _, columns, _ = unpack_columns(payload)
    return payload["blob"][8 * len(column) :], columns["m"]


class TestEnergyWallBisectParity:
    @pytest.mark.parametrize("path", PATHS)
    @given(goals=goal_arrays)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_within_one_ulp(self, path, goals):
        reference = np.array([_wall_reference(g) for g in goals.tolist()])
        candidate = EXPLORER.energy_wall_rate_batch(goals)
        assert candidate.dtype == np.float64
        assert candidate.shape == reference.shape
        np.testing.assert_array_max_ulp(candidate, reference, maxulp=1)

    @pytest.mark.parametrize("path", PATHS)
    def test_nan_goal_behaves_like_unreachable(self, path):
        # NaN never satisfies `saving > goal`, so every iteration moves
        # hi down and the lane converges onto rate_min.
        out = EXPLORER.energy_wall_rate_batch(np.array([float("nan")]))
        assert out[0] == pytest.approx(RATE_MIN, rel=1e-9)


class TestSawtoothParity:
    @pytest.mark.parametrize("path", PATHS)
    @given(caps=cap_arrays, k=stripe_widths, c=sync_bits, ecc=ecc_schemes)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_against_scalar(self, path, caps, k, c, ecc):
        layout = SectorLayout(
            stripe_width=k, sync_bits_per_subsector=c, ecc=ecc
        )
        candidate = layout.best_user_bits_at_most_batch(caps)
        assert candidate.dtype == np.int64
        for cap, got in zip(caps.tolist(), candidate.tolist()):
            want = layout.best_user_bits_at_most(cap)
            # The peak utilisation matches bit for bit; a tie between
            # two sector sizes may break either way.
            assert layout.utilisation(got) == layout.utilisation(want)
            assert 0 < got <= cap

    @pytest.mark.parametrize("path", PATHS)
    def test_peaks_beat_the_raw_cap(self, path):
        # Just past a saw-tooth peak the best Su drops back to the peak;
        # the search must find it rather than return the cap.
        layout = SectorLayout(
            stripe_width=512, sync_bits_per_subsector=3, ecc=NoECC()
        )
        caps = np.array([1024 * 512 + 1], dtype=np.int64)
        assert layout.best_user_bits_at_most_batch(caps)[0] == 1024 * 512


class TestCodecParity:
    @pytest.mark.parametrize("path", PATHS)
    @given(values=st.lists(f8_values, min_size=0, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_f8_roundtrip_bit_exact(self, path, values):
        column = np.array(values, dtype=np.float64)
        blob, decoded = _roundtrip(column)
        assert blob == struct.pack(f"<{len(values)}d", *values)
        # Bitwise comparison: NaN payload bits must survive verbatim.
        np.testing.assert_array_equal(
            decoded.view(np.int64), column.view(np.int64)
        )

    @pytest.mark.parametrize("path", PATHS)
    @given(values=st.lists(i8_values, min_size=0, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_i8_roundtrip_bit_exact(self, path, values):
        column = np.array(values, dtype=np.int64)
        blob, decoded = _roundtrip(column)
        assert blob == struct.pack(f"<{len(values)}q", *values)
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, column)

    @pytest.mark.parametrize("path", PATHS)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=254), min_size=0, max_size=64
        ),
        run=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_u1_roundtrip_bit_exact(self, path, values, run):
        # A string column of at most 255 categories packs as one u1
        # code per value, indexing the sorted categories, whatever its
        # runs; an empty column is a u1 column with no categories.
        labels = [f"c{v:03d}" for v in values for _ in range(run)]
        categories = sorted(set(labels))
        column = np.array(labels, dtype=str)
        blob, decoded = _roundtrip(column)
        assert blob == bytes(categories.index(s) for s in labels)
        assert np.asarray(decoded).tolist() == labels
        payload = pack_series(np.arange(len(labels), dtype=np.float64), {"m": column})
        assert payload["columns"] == [
            {"dtype": "|u1", "categories": categories, "name": "m"}
        ]

    @pytest.mark.parametrize("path", PATHS)
    def test_unpack_respects_offset(self, path):
        # The f8 column is read from byte 16, behind a two-value i8
        # grid and an inline json column that adds no bytes.
        column = np.array([1.5, -2.5], dtype=np.float64)
        payload = pack_series([7, 8], {"j": [None, "x"], "m": column})
        assert payload["blob"][16:] == struct.pack("<2d", 1.5, -2.5)
        _, columns, _ = unpack_columns(payload)
        assert columns["j"] == [None, "x"]
        np.testing.assert_array_equal(columns["m"], column)


class SquareRootECC(ECCScheme):
    """A non-linear scheme with no vectorised formula."""

    def ecc_bits(self, user_bits: int) -> int:
        return int(user_bits**0.5)

    def overhead_ratio(self) -> float:
        return 0.01


class HeaderECC(FractionalECC):
    """The paper's 1/8 ECC plus a 16-bit header per sector."""

    def ecc_bits(self, user_bits: int) -> int:
        return super().ecc_bits(user_bits) + 16


class TestCallSiteParity:
    """The batch methods answer exactly as their scalar twins."""

    def test_sector_batch_matches_scalar_method(self):
        layout = SectorLayout(stripe_width=512)
        caps = np.array([513, 4096, 65537, 1, 2**20 + 7], dtype=np.int64)
        batch = layout.best_user_bits_at_most_batch(caps)
        utilisation = [layout.utilisation(int(v)) for v in batch]
        expected = [
            layout.utilisation(layout.best_user_bits_at_most(int(cap)))
            for cap in caps
        ]
        assert utilisation == pytest.approx(expected, rel=0, abs=0)

    def test_arbitrary_ecc_keeps_the_legacy_batch_path(self):
        # Only the exact built-in classes take the vectorised ECC
        # formulas; any other scheme, a FractionalECC subclass that
        # overrides ecc_bits included, is asked per element.
        caps = np.array([100, 4096, 5000, 123456], dtype=np.int64)
        for layout in (
            SectorLayout(stripe_width=64, ecc=SquareRootECC()),
            SectorLayout(stripe_width=512, ecc=HeaderECC()),
        ):
            assert layout.ecc_bits_batch(caps).tolist() == [
                layout.ecc.ecc_bits(int(cap)) for cap in caps
            ]
            assert layout.sector_bits_batch(caps).tolist() == [
                layout.sector_bits(int(cap)) for cap in caps
            ]
            batch = layout.best_user_bits_at_most_batch(caps)
            for cap, got in zip(caps, batch):
                want = layout.best_user_bits_at_most(int(cap))
                assert layout.utilisation(int(got)) == layout.utilisation(
                    want
                )

    def test_energy_wall_batch_matches_scalar_walls(self):
        goals = np.array([0.05, 0.5, 0.8, 0.97])
        walls = EXPLORER.energy_wall_rate_batch(goals)
        for goal, wall in zip(goals, walls):
            want = EXPLORER.energy_wall_rate(
                DesignGoal(energy_saving=float(goal))
            )
            if np.isinf(want):
                assert np.isinf(wall)
            else:
                assert wall == pytest.approx(want, rel=1e-9)

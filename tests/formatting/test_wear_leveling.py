"""Wear-levelling tests: the "perfect balance" assumption of Eq. (6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.formatting.wear_leveling import (
    DirectPlacement,
    LeastWornPlacement,
    PlacementPolicy,
    RotatingPlacement,
    SectorWearMap,
    simulate_wear,
    zipf_write_workload,
)

SECTORS = 64


def writes_per_sector(wear: SectorWearMap) -> list[int]:
    return [wear.writes_to(sector) for sector in range(wear.sector_count)]


class TestSectorWearMap:
    def test_counters(self):
        wear = SectorWearMap(4, 100)
        wear.record_write(0)
        wear.record_write(0)
        wear.record_write(3)
        assert wear.total_writes == 3
        assert wear.max_writes == 2
        assert wear.writes_to(0) == 2
        assert wear.writes_to(1) == 0
        assert wear.mean_writes == pytest.approx(0.75)

    def test_efficiency_balanced(self):
        wear = SectorWearMap(4, 100)
        for sector in range(4):
            wear.record_write(sector)
        assert wear.wear_efficiency == 1.0
        assert wear.lifetime_scale() == 1.0

    def test_efficiency_skewed(self):
        wear = SectorWearMap(4, 100)
        for _ in range(4):
            wear.record_write(0)
        assert wear.wear_efficiency == pytest.approx(0.25)

    def test_unwritten_is_perfect(self):
        assert SectorWearMap(4, 100).wear_efficiency == 1.0

    def test_rating_fraction(self):
        wear = SectorWearMap(4, 100)
        for _ in range(10):
            wear.record_write(1)
        assert wear.rating_fraction_used == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SectorWearMap(0, 100)
        with pytest.raises(ConfigurationError):
            SectorWearMap(4, 0)
        wear = SectorWearMap(4, 100)
        with pytest.raises(ConfigurationError):
            wear.record_write(4)
        with pytest.raises(ConfigurationError):
            wear.record_write(-1)

    def test_record_writes_counts_like_record_write(self):
        bulk, single = SectorWearMap(4, 100), SectorWearMap(4, 100)
        sectors = [3, 0, 3, 1, 3]
        bulk.record_writes(np.array(sectors))
        for sector in sectors:
            single.record_write(sector)
        assert writes_per_sector(bulk) == writes_per_sector(single) == [1, 1, 0, 3]
        bulk.record_writes(np.array([], dtype=np.int64))
        assert writes_per_sector(bulk) == [1, 1, 0, 3]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_sector_rejected_everywhere(self, bad):
        wear = SectorWearMap(4, 100)
        with pytest.raises(ConfigurationError) as single:
            wear.record_write(bad)
        with pytest.raises(ConfigurationError) as bulk:
            wear.record_writes(np.array([0, bad, 2]))
        with pytest.raises(ConfigurationError) as lookup:
            wear.writes_to(bad)
        assert str(bulk.value) == str(lookup.value) == str(single.value)
        # The bulk check runs before anything is recorded.
        assert wear.total_writes == 0


class TestWorkloads:
    def test_sequential_when_unskewed(self):
        writes = zipf_write_workload(8, 20, skew=0.0)
        assert list(writes[:10]) == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_skew_concentrates(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.2, seed=1)
        counts = np.bincount(writes, minlength=SECTORS)
        assert counts[0] > 5 * counts[SECTORS // 2]

    def test_deterministic(self):
        a = zipf_write_workload(SECTORS, 100, skew=1.0, seed=5)
        b = zipf_write_workload(SECTORS, 100, skew=1.0, seed=5)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_write_workload(0, 10)
        with pytest.raises(ConfigurationError):
            zipf_write_workload(10, 0)
        with pytest.raises(ConfigurationError):
            zipf_write_workload(10, 10, skew=-1)


class TestPolicies:
    def test_streaming_workload_is_balanced_under_direct(self):
        # The paper's streaming pattern (sequential overwrite) is
        # naturally balanced: Equation (6)'s assumption holds.
        writes = zipf_write_workload(SECTORS, SECTORS * 50, skew=0.0)
        result = simulate_wear(DirectPlacement(SECTORS), writes)
        assert result.wear_efficiency == 1.0
        assert result.lifetime_penalty == 1.0

    def test_skewed_workload_breaks_direct(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.2, seed=2)
        result = simulate_wear(DirectPlacement(SECTORS), writes)
        assert result.wear_efficiency < 0.4

    def test_rotation_recovers_balance(self):
        writes = zipf_write_workload(SECTORS, 50_000, skew=1.2, seed=2)
        direct = simulate_wear(DirectPlacement(SECTORS), writes)
        rotating = simulate_wear(
            RotatingPlacement(SECTORS, rotation_period=16), writes
        )
        assert rotating.wear_efficiency > 2 * direct.wear_efficiency

    def test_least_worn_is_optimal(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.5, seed=3)
        greedy = simulate_wear(LeastWornPlacement(SECTORS), writes)
        # Greedy achieves near-perfect balance regardless of skew.
        assert greedy.wear_efficiency > 0.99

    def test_least_worn_upper_bounds_others(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.0, seed=4)
        greedy = simulate_wear(LeastWornPlacement(SECTORS), writes)
        for policy in (
            DirectPlacement(SECTORS),
            RotatingPlacement(SECTORS, rotation_period=64),
        ):
            other = simulate_wear(policy, writes)
            assert greedy.wear_efficiency >= other.wear_efficiency - 1e-9

    def test_result_fields(self):
        writes = zipf_write_workload(8, 64, skew=0.0)
        result = simulate_wear(DirectPlacement(8), writes)
        assert result.policy == "DirectPlacement"
        assert result.total_writes == 64
        assert result.mean_writes == pytest.approx(8.0)

    def test_rotation_period_validation(self):
        with pytest.raises(ConfigurationError):
            RotatingPlacement(SECTORS, rotation_period=0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_efficiency_always_in_unit_interval(self, seed):
        writes = zipf_write_workload(16, 2_000, skew=1.0, seed=seed)
        for policy in (
            DirectPlacement(16),
            RotatingPlacement(16, rotation_period=8),
            LeastWornPlacement(16),
        ):
            result = simulate_wear(policy, writes)
            assert 0 < result.wear_efficiency <= 1.0


class TestPlaceAll:
    """Each built-in closed form against the per-write loop it replaces."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_write_loop(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24), label="sectors")
        period = data.draw(st.integers(min_value=1, max_value=20),
                           label="rotation period")
        prior = data.draw(
            st.lists(st.integers(min_value=0, max_value=6),
                     min_size=n, max_size=n),
            label="wear before the first call",
        )
        # Several calls on one policy and one map: a reused rotating
        # policy must carry its counters over exactly as the loop does.
        calls = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-100, max_value=100),
                         max_size=120),
                min_size=1, max_size=3,
            ),
            label="logical writes per call",
        )
        for make in (
            DirectPlacement,
            lambda sectors: RotatingPlacement(sectors, rotation_period=period),
            LeastWornPlacement,
        ):
            fast, loop = make(n), make(n)
            fast_wear, loop_wear = SectorWearMap(n, 100), SectorWearMap(n, 100)
            for wear in (fast_wear, loop_wear):
                wear.record_writes(np.repeat(np.arange(n), prior))
            for writes in calls:
                fast.place_all(np.array(writes, dtype=np.int64), fast_wear)
                PlacementPolicy.place_all(
                    loop, np.array(writes, dtype=np.int64), loop_wear
                )
                assert writes_per_sector(fast_wear) == writes_per_sector(loop_wear)
                assert vars(fast) == vars(loop)

    def test_policy_defining_only_place_runs_the_loop(self):
        class ReversedPlacement(PlacementPolicy):
            def __init__(self, sector_count):
                super().__init__(sector_count)
                self.asked = []

            def place(self, logical_sector, wear):
                self.asked.append(logical_sector)
                return self.sector_count - 1 - logical_sector % self.sector_count

        policy = ReversedPlacement(4)
        result = simulate_wear(policy, np.array([0, 0, 1, 5, 7]))
        assert policy.asked == [0, 0, 1, 5, 7]
        assert all(isinstance(logical, int) for logical in policy.asked)
        assert result.policy == "ReversedPlacement"
        assert result.total_writes == 5
        assert result.max_writes == 2
        assert result.mean_writes == pytest.approx(1.25)

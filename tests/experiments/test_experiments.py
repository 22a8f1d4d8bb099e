"""Experiment-registry tests: every paper artefact regenerates and keeps
its shape (who wins, where crossovers fall, saturation points)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
    validate_experiment_ids,
)

#: The headline digests perfbench checks every ``registry`` op against.
REFERENCE_DIGESTS = (
    Path(__file__).resolve().parents[2] / "perfbench" / "registry_reference.json"
)


def headline_digest(headline) -> str:
    """SHA-256 of a headline, as ``perfbench/workloads.py`` takes it."""
    text = json.dumps(headline, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        ids = {name for name, _ in list_experiments()}
        assert {
            "table1",
            "breakeven",
            "capacity-example",
            "fig2a",
            "fig2b",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig3-c85",
            "tradeoff10",
            "sim-validate",
            "dram-negligible",
            "wear-balance",
        } <= ids

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")
        with pytest.raises(ConfigurationError, match="fig99"):
            validate_experiment_ids(["table1", "fig99"])

    def test_catalog_matches_the_registry(self):
        # list/--help read the catalog without importing an experiment.
        assert list_experiments() == sorted(
            (experiment_id, description)
            for experiment_id, (_, description) in EXPERIMENTS.items()
        )

    def test_registry_refuses_a_catalog_it_disagrees_with(self):
        code = (
            "from repro.experiments import catalog\n"
            "catalog.DESCRIPTIONS['fig99'] = 'not a runner'\n"
            "import repro.experiments.registry\n"
        )
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [source_root, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
        )
        assert completed.returncode != 0
        assert "disagree on ids: ['fig99']" in completed.stderr

    def test_results_render(self):
        result = run_experiment("table1")
        text = result.render()
        assert "Table I" in text
        assert "headline numbers:" in text


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("table1")

    def test_transfer_rate(self, result):
        # 1024 probes x 100 kbps = 102.4 Mbps.
        assert result.headline["transfer_rate_mbps"] == pytest.approx(102.4)

    def test_overheads(self, result):
        assert result.headline["overhead_time_ms"] == pytest.approx(3.0)
        assert result.headline["overhead_energy_mj"] == pytest.approx(2.016)

    def test_footprint_matches_intro(self, result):
        # §I: "a small footprint (41 mm^2)".
        assert result.headline["footprint_mm2"] == pytest.approx(41, rel=0.01)

    def test_playback_seconds(self, result):
        assert result.headline["playback_seconds_per_year"] == (
            pytest.approx(1.0512e7)
        )


class TestBreakeven:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("breakeven")

    def test_mems_range_matches_paper(self, result):
        # Paper: 0.07 - 8.87 kB.
        assert result.headline["mems_break_even_min_kb"] == pytest.approx(
            0.07, rel=0.02
        )
        assert result.headline["mems_break_even_max_kb"] == pytest.approx(
            8.87, rel=0.01
        )

    def test_disk_range_matches_paper(self, result):
        # Paper: 0.08 - 9.29 MB (we land at 0.073 - 9.29, see DESIGN.md).
        assert result.headline["disk_break_even_min_mb"] == pytest.approx(
            0.073, rel=0.02
        )
        assert result.headline["disk_break_even_max_mb"] == pytest.approx(
            9.29, rel=0.01
        )

    def test_three_orders_of_magnitude(self, result):
        assert result.headline["orders_of_magnitude"] == pytest.approx(
            3.0, abs=0.1
        )


class TestCapacityExample:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("capacity-example")

    def test_88_percent_tops(self, result):
        assert result.headline["utilisation_supremum"] == pytest.approx(
            8 / 9
        )

    def test_106_of_120_gb(self, result):
        assert result.headline["user_capacity_gb_at_88pct"] == pytest.approx(
            106, rel=0.01
        )
        assert result.headline["raw_capacity_gb"] == pytest.approx(120)

    def test_88_point_at_tens_of_kb(self, result):
        assert 30 <= result.headline["buffer_for_88pct_kb"] <= 40


class TestFig2a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig2a")

    def test_energy_monotone_decreasing(self, result):
        energy = result.tables[0].column("energy (nJ/b)")
        assert all(a > b for a, b in zip(energy, energy[1:]))

    def test_energy_axis_range(self, result):
        # Figure 2a's y-axis: ~135 nJ/b at the left edge (with the 5%
        # best-effort tax; 120 nJ/b without), dropping ~4-5x by 20x the
        # break-even buffer.
        left = result.headline["energy_at_break_even_nj"]
        right = result.headline["energy_at_20x_nj"]
        assert 110 <= left <= 140
        assert right < left / 4

    def test_diminishing_returns_beyond_20kb(self, result):
        # Paper: "diminishing returns as the buffer increases beyond
        # 20 kB" — the drop over the second 20 kB is a small fraction of
        # the drop over the first 20 kB.
        be = result.headline["break_even_kb"]
        first_drop = (
            result.headline["energy_at_break_even_nj"]
            - result.headline["energy_at_20kb_nj"]
        )
        second_drop = (
            result.headline["energy_at_20kb_nj"]
            - result.headline["energy_at_40kb_nj"]
        )
        assert be < 20
        assert second_drop < 0.1 * first_drop

    def test_capacity_saturates_beyond_7kb(self, result):
        # Paper: "Beyond 7 kB the capacity increase saturates."
        assert result.headline["utilisation_at_7kb"] > 0.95 * (
            result.headline["utilisation_supremum"]
        )

    def test_dram_negligible_on_this_axis(self, result):
        assert result.headline["dram_max_nj"] < 10


class TestFig2b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig2b")

    def test_springs_limit_4_years_in_plotted_range(self, result):
        # Paper: "springs at 1e8 limit the device lifetime to just 4 years".
        assert 3.0 <= result.headline["springs_at_range_end_years"] <= 4.5

    def test_90kb_for_7_years(self, result):
        # Paper: "about 90 kB is required to attain a 7-year lifetime".
        assert result.headline["buffer_for_7yr_springs_kb"] == pytest.approx(
            90, rel=0.1
        )
        assert result.headline["springs_at_90kb_years"] == pytest.approx(
            7, rel=0.1
        )

    def test_probes_saturate_near_ceiling(self, result):
        probes = result.tables[0].column("probes (years)")
        ceiling = result.headline["probes_ceiling_years"]
        assert probes[-1] <= ceiling
        assert probes[-1] > 0.9 * ceiling

    def test_springs_linear(self, result):
        springs = result.tables[0].column("springs (years)")
        buffers = result.tables[0].column("buffer (kB)")
        assert springs[-1] / springs[0] == pytest.approx(
            buffers[-1] / buffers[0], rel=1e-6
        )


class TestFig3Panels:
    def test_fig3a_regions(self):
        result = run_experiment("fig3a")
        assert result.headline["region_sequence"] == ["C", "E", "X"]
        # Paper: infeasible "slightly above 1000 kbps".
        assert 1_000 <= result.headline["energy_wall_kbps"] <= 1_500

    def test_fig3a_capacity_plateau(self):
        result = run_experiment("fig3a")
        assert result.headline["buffer_at_min_rate_kb"] == pytest.approx(
            33.8, rel=0.02
        )

    def test_fig3b_regions(self):
        result = run_experiment("fig3b")
        sequence = result.headline["region_sequence"]
        assert sequence[0] == "C"
        assert "Lsp" in sequence
        assert "E" not in sequence  # "energy has no word on buffer size"
        assert sequence[-1] == "X"

    def test_fig3b_probes_wall(self):
        result = run_experiment("fig3b")
        # Literal Equation (6): wall at ~2.9 Mbps (the paper narrates
        # ~1.5 Mbps; see DESIGN.md §4.5 for the write-verify variant).
        assert result.headline["probes_wall_kbps"] == pytest.approx(
            2899, rel=0.02
        )

    def test_fig3c_regions(self):
        result = run_experiment("fig3c")
        assert result.headline["region_sequence"] == ["C", "E"]
        assert math.isinf(result.headline["energy_wall_kbps"])

    def test_fig3_c85_sequence(self):
        result = run_experiment("fig3-c85")
        sequence = result.headline["region_sequence"]
        # §IV.C: lifetime dominates temporarily before energy takes over.
        assert sequence[0] == "C"
        assert "Lsp" in sequence
        assert "E" in sequence
        assert sequence.index("Lsp") < sequence.index("E")


class TestTradeoff10:
    def test_three_orders_of_magnitude(self):
        result = run_experiment("tradeoff10")
        assert result.headline["max_orders_of_magnitude"] >= 3.0
        assert "orders of magnitude" in result.headline["summary"]


class TestSimValidate:
    def test_model_and_simulation_agree(self):
        result = run_experiment("sim-validate", cycles_per_point=60)
        assert result.headline["all_agree"]
        assert result.headline["worst_energy_error"] < 0.01

    def test_default_headline_agrees_with_equation_1(self):
        headline = run_experiment("sim-validate").headline
        assert headline["all_agree"]
        assert headline["worst_energy_error"] < 0.01
        assert headline["worst_cycle_error"] < 0.01


class TestReferenceDigests:
    """Every artefact's headline, bit for bit, as perfbench checks it."""

    REFERENCE = json.loads(REFERENCE_DIGESTS.read_text())

    def test_every_artefact_has_a_reference_digest(self):
        assert sorted(self.REFERENCE["digests"]) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize(
        "experiment_id", sorted(REFERENCE["digests"])
    )
    def test_headline_digest(self, experiment_id):
        overrides = (
            {"seed": self.REFERENCE["wear_seed"]}
            if experiment_id == "wear-balance"
            else {}
        )
        headline = run_experiment(experiment_id, **overrides).headline
        digest = self.REFERENCE["digests"][experiment_id]
        assert headline_digest(headline) == digest


class TestDRAMNegligible:
    def test_share_is_small(self):
        result = run_experiment("dram-negligible")
        assert result.headline["max_dram_share"] < 0.25


class TestWearBalance:
    def test_streaming_assumption_holds(self):
        result = run_experiment(
            "wear-balance", sectors=64, total_writes=12_800
        )
        assert result.headline["streaming_direct_efficiency"] > 0.99
        assert result.headline["hotspot_direct_efficiency"] < 0.5
        assert result.headline["hotspot_least_worn_efficiency"] > 0.99

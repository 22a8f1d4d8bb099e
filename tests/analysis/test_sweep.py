"""Parameter-sweep harness tests."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import sweep_parameter
from repro.errors import InfeasibleDesignError


class TestSweep:
    def test_collects_metrics(self):
        result = sweep_parameter(
            "x",
            [1, 2, 3],
            {"square": lambda x: x * x, "double": lambda x: 2 * x},
        )
        assert result.metric("square") == (1.0, 4.0, 9.0)
        assert result.metric("double") == (2.0, 4.0, 6.0)
        assert result.parameter == "x"

    def test_infeasible_recorded_as_inf(self):
        def sometimes(x):
            if x > 2:
                raise InfeasibleDesignError("too big")
            return float(x)

        result = sweep_parameter("x", [1, 2, 3], {"m": sometimes})
        assert result.metric("m") == (1.0, 2.0, math.inf)
        assert result.finite_mask("m").tolist() == [True, True, False]

    def test_argmin_argmax_ignore_inf(self):
        def metric(x):
            if x == 0:
                raise InfeasibleDesignError("nope")
            return 1.0 / x

        result = sweep_parameter("x", [0, 1, 2, 4], {"m": metric})
        assert result.argmin("m") == 4
        assert result.argmax("m") == 1

    def test_argmin_all_infeasible_raises(self):
        def metric(_):
            raise InfeasibleDesignError("never")

        result = sweep_parameter("x", [1], {"m": metric})
        with pytest.raises(ValueError):
            result.argmin("m")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter("x", [], {"m": float})
        with pytest.raises(ValueError):
            sweep_parameter("x", [1], {})

    def test_as_arrays_cached(self):
        result = sweep_parameter("x", [1, 2, 3], {"m": lambda x: float(x)})
        values, metrics = result.as_arrays()
        assert values.tolist() == [1, 2, 3]
        assert metrics["m"].tolist() == [1.0, 2.0, 3.0]
        # Cached: repeated access returns the same arrays, no rebuild.
        assert result.as_arrays()[1]["m"] is metrics["m"]


class TestBatchMetric:
    def test_evaluated_once_for_whole_grid(self):
        from repro.analysis.sweep import BatchMetric

        calls = []

        def batch(values):
            calls.append(len(values))
            return [v * v for v in values]

        result = sweep_parameter(
            "x",
            [1, 2, 3],
            {"batch": BatchMetric(batch), "scalar": lambda x: 2.0 * x},
        )
        assert calls == [3]
        assert result.metric("batch") == (1.0, 4.0, 9.0)
        assert result.metric("scalar") == (2.0, 4.0, 6.0)

    def test_model_core_batch_metric(self):
        from repro.analysis.sweep import BatchMetric
        from repro.config import ibm_mems_prototype, table1_workload
        from repro.core.energy import EnergyModel

        model = EnergyModel(ibm_mems_prototype(), table1_workload())
        grid = [32_000.0, 1_024_000.0, 4_000_000.0]
        result = sweep_parameter(
            "rate_bps",
            grid,
            {"break_even": BatchMetric(model.break_even_buffer_batch)},
        )
        assert result.metric("break_even") == tuple(
            model.break_even_buffer(r) for r in grid
        )

    def test_blanket_infeasibility_maps_to_inf(self):
        from repro.analysis.sweep import BatchMetric

        def never(values):
            raise InfeasibleDesignError("nope")

        result = sweep_parameter("x", [1, 2], {"m": BatchMetric(never)})
        assert result.metric("m") == (math.inf, math.inf)

    def test_shape_mismatch_rejected(self):
        from repro.analysis.sweep import BatchMetric
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_parameter(
                "x", [1, 2], {"m": BatchMetric(lambda values: [1.0])}
            )

    def test_scalar_call_fallback(self):
        from repro.analysis.sweep import BatchMetric

        metric = BatchMetric(lambda values: [v + 1 for v in values])
        assert metric(41) == 42.0


class TestShardedSweep:
    """sweep_parameter(shards=, store=): grids via the campaign engine."""

    GRID = [float(v) for v in range(32_000, 32_024)]

    def test_routes_through_sharded_campaign(self, tmp_path):
        store = tmp_path / "s.sqlite"
        result = sweep_parameter(
            "rate_bps",
            self.GRID,
            {"be": "repro.core.batch:break_even_curve"},
            shards=3,
            store=store,
        )
        assert result.parameter == "rate_bps"
        assert result.values == tuple(self.GRID)
        series = result.metric("be.break_even_bits")
        assert len(series) == len(self.GRID)
        # Same numbers as the direct batch evaluation.
        from repro.core.batch import break_even_curve

        expected = break_even_curve(self.GRID)["break_even_bits"]
        assert list(series) == expected.tolist()

    def test_store_alone_implies_default_shards(self, tmp_path):
        result = sweep_parameter(
            "rate_bps",
            self.GRID,
            {"be": "repro.core.batch:break_even_curve"},
            store=tmp_path / "s.jsonl",
        )
        assert len(result.metric("be.break_even_bits")) == len(self.GRID)

    def test_rerun_is_cached(self, tmp_path):
        store = tmp_path / "s.sqlite"
        kwargs = dict(shards=3, store=store)
        first = sweep_parameter(
            "rate_bps",
            self.GRID,
            {"be": "repro.core.batch:break_even_curve"},
            **kwargs,
        )
        again = sweep_parameter(
            "rate_bps",
            self.GRID,
            {"be": "repro.core.batch:break_even_curve"},
            **kwargs,
        )
        assert first.metrics == again.metrics

    def test_mapping_targets_expand_to_submetrics(self, tmp_path):
        result = sweep_parameter(
            "rate_bps",
            self.GRID,
            {"dspace": "repro.core.batch:evaluate_rate_grid"},
            shards=2,
            store=tmp_path / "s.sqlite",
        )
        assert "dspace.required_buffer_bits" in result.metrics
        assert "dspace.energy_buffer_bits" in result.metrics
        # Non-numeric sub-series (labels, booleans) are skipped.
        assert "dspace.dominant" not in result.metrics
        assert "dspace.feasible" not in result.metrics

    def test_shards_without_store_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_parameter(
                "rate_bps",
                self.GRID,
                {"be": "repro.core.batch:break_even_curve"},
                shards=4,
            )

    def test_callable_metric_rejected_in_sharded_mode(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            sweep_parameter(
                "x",
                [1.0, 2.0],
                {"m": lambda x: x},
                shards=2,
                store=tmp_path / "s.jsonl",
            )

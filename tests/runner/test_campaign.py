"""Campaign builder and runner tests."""

from __future__ import annotations

import pytest

from repro.errors import CampaignError, ConfigurationError
from repro.runner import (
    Campaign,
    ResultStore,
    registry_campaign,
    run_campaign,
)

#: A cheap, representative slice of the registry.
FAST_IDS = ["table1", "breakeven", "capacity-example"]


class TestBuilder:
    def test_chaining_and_ids(self):
        campaign = (
            Campaign("demo")
            .experiment("table1")
            .call("kb", "repro.units:kb_to_bits", kb=2.0)
            .call("sq[1]", "runner_workers:square", x=1)
            .call("sq[2]", "runner_workers:square", x=2)
        )
        assert campaign.job_ids() == ["table1", "kb", "sq[1]", "sq[2]"]

    def test_duplicate_job_id_rejected(self):
        campaign = Campaign("demo").experiment("table1")
        with pytest.raises(ConfigurationError, match="already has"):
            campaign.experiment("table1")

    def test_experiment_alias_and_overrides(self):
        campaign = Campaign("demo").experiment(
            "sim-validate", job_id="fast-validate", cycles_per_point=5
        )
        spec = campaign.specs[0]
        assert spec.job_id == "fast-validate"
        assert spec.target == "sim-validate"
        assert spec.params_dict() == {"cycles_per_point": 5}

    def test_registry_campaign_defaults_to_all(self):
        from repro.experiments import list_experiments

        campaign = registry_campaign()
        assert campaign.job_ids() == [
            name for name, _ in list_experiments()
        ]

    def test_registry_campaign_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            registry_campaign(["table1", "fig99"])


class TestRunCampaign:
    def test_serial_run_collects_headlines(self):
        outcome = run_campaign(registry_campaign(FAST_IDS))
        assert outcome.ok
        assert list(outcome.headlines()) == FAST_IDS
        assert outcome.headlines()["table1"]["transfer_rate_mbps"] == (
            pytest.approx(102.4)
        )

    def test_summary_renders(self):
        outcome = run_campaign(registry_campaign(FAST_IDS))
        text = outcome.summary()
        assert "Campaign" in text
        for job_id in FAST_IDS:
            assert job_id in text
        assert "3 ok" in text

    def test_store_makes_rerun_cached(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        first = run_campaign(
            registry_campaign(FAST_IDS), store_path=store_path
        )
        rerun = run_campaign(
            registry_campaign(FAST_IDS), store_path=store_path
        )
        assert rerun.status_counts() == {"cached": len(FAST_IDS)}
        assert rerun.headlines() == first.headlines()
        assert rerun.cache_stats["hits"] == len(FAST_IDS)

    def test_changed_params_invalidate_cache(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        run_campaign(
            Campaign("a").experiment("sim-validate", cycles_per_point=5),
            store_path=store_path,
        )
        outcome = run_campaign(
            Campaign("b").experiment("sim-validate", cycles_per_point=6),
            store_path=store_path,
        )
        assert outcome.status_counts() == {"ok": 1}

    def test_interrupted_campaign_resumes(self, tmp_path):
        # Simulate an interruption: only a prefix was persisted.
        store_path = str(tmp_path / "results.jsonl")
        run_campaign(
            registry_campaign(FAST_IDS[:2]), store_path=store_path
        )
        resumed = run_campaign(
            registry_campaign(FAST_IDS), store_path=store_path
        )
        counts = resumed.status_counts()
        assert counts["cached"] == 2
        assert counts["ok"] == 1

    def test_store_and_store_path_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign(
                registry_campaign(["table1"]),
                store_path=str(tmp_path / "a.jsonl"),
                store=ResultStore(tmp_path / "b.jsonl"),
            )

    def test_store_backend_requires_store_path(self):
        with pytest.raises(ConfigurationError, match="store_path"):
            run_campaign(
                registry_campaign(["table1"]), store_backend="sqlite"
            )

    def test_cancel_and_bus_keywords_are_gone(self):
        # Cooperative cancellation and a caller-supplied event bus served
        # only the removed campaign service; passing either is an error,
        # not a silently ignored keyword.
        with pytest.raises(TypeError, match="cancel"):
            run_campaign(registry_campaign(["table1"]), cancel=lambda: False)
        with pytest.raises(TypeError, match="bus"):
            run_campaign(registry_campaign(["table1"]), bus=None)

    def test_sqlite_store_rerun_matches_jsonl(self, tmp_path):
        outcomes = {}
        for backend in ("jsonl", "sqlite"):
            store_path = str(tmp_path / f"results.{backend}")
            first = run_campaign(
                registry_campaign(FAST_IDS),
                store_path=store_path,
                store_backend=backend,
            )
            rerun = run_campaign(
                registry_campaign(FAST_IDS),
                store_path=store_path,
                store_backend=backend,
            )
            assert rerun.status_counts() == {"cached": len(FAST_IDS)}
            outcomes[backend] = rerun.headlines()
        assert outcomes["jsonl"] == outcomes["sqlite"]

    def test_failure_reported_and_strict_raises(self):
        campaign = Campaign("bad").call("boom", "runner_workers:boom")
        outcome = run_campaign(campaign)
        assert not outcome.ok
        assert outcome.failures == ("boom",)
        assert "boom" in outcome.summary()
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(campaign, strict=True)
        assert excinfo.value.job_ids == ("boom",)

    def test_monitor_sees_every_event(self):
        from repro.runner import ProgressMonitor

        monitor = ProgressMonitor()
        run_campaign(registry_campaign(FAST_IDS), monitor=monitor)
        assert monitor.done == len(FAST_IDS)
        assert monitor.total == len(FAST_IDS)


class TestRunExperimentsFacade:
    def test_returns_results_by_id(self):
        from repro.experiments import run_experiments

        results = run_experiments(FAST_IDS)
        assert list(results) == FAST_IDS
        assert results["table1"].experiment_id == "table1"

    def test_failure_raises_campaign_error(self):
        from repro.experiments import run_experiments

        with pytest.raises(ConfigurationError):
            run_experiments(["fig99"])

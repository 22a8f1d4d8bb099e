"""Tests of the stable ``repro.api`` facade and the shims it replaced."""

from __future__ import annotations

import inspect
import os

import pytest

import repro
from repro import api
from repro.runner.store import ResultStore
from repro.telemetry import TELEMETRY_ENV_VAR


def small_sweep(store, **kwargs):
    return api.sweep(
        "facade-sweep",
        "runner_workers:array_curve",
        "values",
        [1.0, 2.0, 3.0, 4.0],
        store=store,
        shards=2,
        **kwargs,
    )


class TestFacadeSurface:
    def test_reexported_from_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__

    def test_every_contract_verb_is_exported(self):
        for name in (
            "run_experiment",
            "run_campaign",
            "sweep",
            "sweep_campaign",
            "open_store",
        ):
            assert name in api.__all__
            assert callable(getattr(api, name))

    def test_service_verbs_are_gone(self):
        for name in ("serve", "submit", "status", "cancel", "watch"):
            assert name not in api.__all__
            assert not hasattr(api, name)

    def test_coherent_keywords_across_verbs(self):
        # The facade contract: the same spellings everywhere they apply.
        expectations = {
            api.run_campaign: {"store", "backend", "jobs", "telemetry"},
            api.sweep: {"store", "backend", "jobs", "telemetry", "shards"},
            api.open_store: {"backend"},
        }
        for verb, keywords in expectations.items():
            parameters = inspect.signature(verb).parameters
            for keyword in keywords:
                assert keyword in parameters, (verb.__name__, keyword)
                assert (
                    parameters[keyword].kind
                    is inspect.Parameter.KEYWORD_ONLY
                ), (verb.__name__, keyword)


class TestDeprecatedExports:
    def test_old_toplevel_names_are_gone(self):
        with pytest.raises(AttributeError, match="run_sharded_sweep"):
            repro.run_sharded_sweep
        with pytest.raises(AttributeError, match="sharded_sweep_campaign"):
            repro.sharded_sweep_campaign

    def test_star_import_is_clean_with_warnings_as_errors(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro import *", {})

    def test_facade_aliases_do_not_warn(self):
        import warnings

        from repro.runner import sharding

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert api.sweep_campaign is sharding.sharded_sweep_campaign

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name


class TestLocalVerbs:
    def test_open_store_round_trips(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = api.open_store(path)
        try:
            assert isinstance(store, ResultStore)
            store.append(
                {"key": "k", "job_id": "j", "status": "ok", "value": 1}
            )
        finally:
            store.close()
        assert os.path.exists(path)

    def test_sweep_runs_and_persists(self, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        outcome = small_sweep(store)
        assert outcome.ok
        campaign = api.sweep_campaign(
            "facade-sweep",
            "runner_workers:array_curve",
            "values",
            [1.0, 2.0, 3.0, 4.0],
            store_path=store,
            shards=2,
        )
        decoded = api.collect_arrays(store, campaign)
        assert list(decoded.values) == [1.0, 2.0, 3.0, 4.0]
        assert list(decoded.columns["double"]) == [2.0, 4.0, 6.0, 8.0]

    def test_telemetry_override_restores_environment(self, tmp_path):
        previous = os.environ.pop(TELEMETRY_ENV_VAR, None)
        try:
            outcome = small_sweep(
                str(tmp_path / "quiet.jsonl"), telemetry=False
            )
            assert outcome.ok
            assert TELEMETRY_ENV_VAR not in os.environ
        finally:
            if previous is not None:
                os.environ[TELEMETRY_ENV_VAR] = previous

    def test_run_campaign_facade_keywords(self, tmp_path):
        campaign = api.Campaign("facade-campaign")
        campaign.call("sum", "runner_workers:add", a=2, b=3)
        outcome = api.run_campaign(
            campaign, store=str(tmp_path / "c.jsonl"), jobs=1
        )
        assert outcome.ok
        assert outcome.results["sum"].value == 5

    def test_run_experiment_returns_registry_result(self):
        result = api.run_experiment("table1")
        assert result.experiment_id == "table1"


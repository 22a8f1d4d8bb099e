"""Content-addressed cache tests."""

from __future__ import annotations

import pytest

from repro.runner.cache import ResultCache
from repro.runner.jobs import (
    JobResult,
    JobSpec,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
)
from repro.runner.store import ResultStore

SPEC = JobSpec("j", "callable", "m:f", {"x": 1})


def ok_result(spec=SPEC, value=42):
    return JobResult(spec.job_id, spec.key, STATUS_OK, value=value,
                     attempts=1, duration_s=0.1)


class TestMemoization:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup(SPEC) is None
        cache.put(SPEC, ok_result())
        hit = cache.lookup(SPEC)
        assert hit is not None
        assert hit.status == STATUS_CACHED
        assert hit.value == 42
        assert hit.attempts == 0

    def test_hit_is_content_addressed_not_id_addressed(self):
        cache = ResultCache()
        cache.put(SPEC, ok_result())
        renamed = JobSpec("other-name", "callable", "m:f", {"x": 1})
        hit = cache.lookup(renamed)
        assert hit is not None
        assert hit.job_id == "other-name"

    def test_different_params_miss(self):
        cache = ResultCache()
        cache.put(SPEC, ok_result())
        assert cache.lookup(
            JobSpec("j", "callable", "m:f", {"x": 2})
        ) is None

    def test_failures_never_cached(self):
        cache = ResultCache()
        cache.put(
            SPEC,
            JobResult(SPEC.job_id, SPEC.key, STATUS_FAILED, error="boom"),
        )
        assert len(cache) == 0
        assert cache.lookup(SPEC) is None

    def test_forget(self):
        cache = ResultCache()
        cache.put(SPEC, ok_result())
        cache.forget(SPEC.key)
        assert cache.lookup(SPEC) is None

    def test_stats(self):
        cache = ResultCache()
        cache.lookup(SPEC)
        cache.put(SPEC, ok_result())
        cache.lookup(SPEC)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "puts": 1, "stale": 0, "size": 1,
        }


class TestPersistence:
    def test_put_appends_to_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        cache = ResultCache(store)
        cache.put(SPEC, ok_result())
        assert store.get(SPEC.key)["value"] == 42

    def test_preloads_from_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        ResultCache(store).put(SPEC, ok_result())
        fresh = ResultCache(ResultStore(tmp_path / "r.jsonl"))
        assert SPEC.key in fresh
        hit = fresh.lookup(SPEC)
        assert hit is not None and hit.value == 42

    def test_preload_keeps_latest_ok_record(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(
            {"key": SPEC.key, "job_id": "j", "status": "ok", "value": 1}
        )
        store.append(
            {"key": SPEC.key, "job_id": "j", "status": "ok", "value": 2}
        )
        hit = ResultCache(store).lookup(SPEC)
        assert hit is not None and hit.value == 2


class TestProvenance:
    """Stale results from older model code must not be served."""

    def stale_record(self, **overrides):
        record = {
            "key": SPEC.key, "job_id": "j", "status": "ok", "value": 1,
            "repro_version": "0.0.1", "config_hash": "0123456789abcdef",
        }
        record.update(overrides)
        return record

    def test_mismatched_version_is_stale(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        # Backend-level append bypasses the facade's stamping.
        store.backend.append(self.stale_record())
        cache = ResultCache(store)
        assert cache.lookup(SPEC) is None
        assert cache.stale == 1
        assert cache.stats()["stale"] == 1

    def test_unstamped_legacy_record_is_stale(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.backend.append(
            {"key": SPEC.key, "job_id": "j", "status": "ok", "value": 1}
        )
        cache = ResultCache(store)
        assert cache.lookup(SPEC) is None
        assert cache.stale == 1

    def test_mismatched_config_hash_is_stale(self, tmp_path):
        from repro.runner.provenance import repro_version

        store = ResultStore(tmp_path / "r.jsonl")
        store.backend.append(
            self.stale_record(repro_version=repro_version())
        )
        assert ResultCache(store).stale == 1

    def test_current_stamp_is_served(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(
            {"key": SPEC.key, "job_id": "j", "status": "ok", "value": 7}
        )
        cache = ResultCache(store)
        hit = cache.lookup(SPEC)
        assert hit is not None and hit.value == 7
        assert cache.stale == 0

    def test_check_provenance_false_trusts_everything(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.backend.append(self.stale_record())
        cache = ResultCache(store, check_provenance=False)
        hit = cache.lookup(SPEC)
        assert hit is not None and hit.value == 1
        assert cache.stale == 0

    def test_version_bump_invalidates_campaign_store(
        self, tmp_path, monkeypatch
    ):
        import repro
        from repro.runner import registry_campaign, run_campaign

        store_path = str(tmp_path / "r.jsonl")
        run_campaign(registry_campaign(["table1"]), store_path=store_path)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        rerun = run_campaign(
            registry_campaign(["table1"]), store_path=store_path
        )
        assert rerun.status_counts() == {"ok": 1}
        assert rerun.cache_stats["stale"] == 1


class TestLazyPreload:
    """Lazy / point-range preload: huge stores cost nothing up front."""

    def _seeded_store(self, tmp_path, extra=0):
        store = ResultStore(tmp_path / "r.sqlite")
        cache = ResultCache(store)
        cache.put(SPEC, ok_result())
        for index in range(extra):
            store.append(
                {
                    "key": f"point{index}",
                    "job_id": f"sweep[{index}]",
                    "status": "ok",
                    "value": index,
                }
            )
        return store

    def test_lazy_preloads_nothing_then_resolves_on_demand(self, tmp_path):
        store = self._seeded_store(tmp_path, extra=50)
        cache = ResultCache(store, preload="lazy")
        assert len(cache) == 0
        hit = cache.lookup(SPEC)
        assert hit is not None and hit.value == 42
        assert len(cache) == 1  # memoized after first resolution
        assert cache.stats()["hits"] == 1

    def test_lazy_memoizes_absence(self, tmp_path):
        store = self._seeded_store(tmp_path)
        cache = ResultCache(store, preload="lazy")
        missing = JobSpec("m", "callable", "m:f", {"x": 99})
        assert cache.lookup(missing) is None
        assert cache.lookup(missing) is None
        assert cache.stats()["misses"] == 2

    def test_lazy_stale_record_not_served(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.backend.append(
            {
                "key": SPEC.key, "job_id": "j", "status": "ok", "value": 1,
                "repro_version": "0.0.1",
                "config_hash": "0123456789abcdef",
            }
        )
        cache = ResultCache(store, preload="lazy")
        assert cache.stale == 0  # nothing inspected yet
        assert cache.lookup(SPEC) is None
        assert cache.stale == 1
        # The stale key is pinned missing: no repeat store hits, no flip.
        assert cache.lookup(SPEC) is None
        assert cache.stale == 1

    def test_lazy_forget_stays_forgotten(self, tmp_path):
        store = self._seeded_store(tmp_path)
        cache = ResultCache(store, preload="lazy")
        assert cache.lookup(SPEC) is not None
        cache.forget(SPEC.key)
        # Eager caches stay forgotten; lazy must not resurrect from disk.
        assert cache.lookup(SPEC) is None

    def test_key_filtered_preload(self, tmp_path):
        store = self._seeded_store(tmp_path, extra=100)
        cache = ResultCache(store, preload=[SPEC.key])
        assert len(cache) == 1
        assert SPEC.key in cache
        hit = cache.lookup(SPEC)
        assert hit is not None and hit.value == 42

    def test_key_filtered_preload_jsonl_scan(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        ResultCache(store).put(SPEC, ok_result())
        for index in range(100):
            store.append(
                {
                    "key": f"point{index}",
                    "job_id": f"sweep[{index}]",
                    "status": "ok",
                    "value": index,
                }
            )
        cache = ResultCache(store, preload=[SPEC.key, "point7"])
        assert len(cache) == 2

    def test_unknown_preload_mode_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        store = self._seeded_store(tmp_path)
        with pytest.raises(ConfigurationError):
            ResultCache(store, preload="sometimes")
        with pytest.raises(ConfigurationError):
            ResultCache(preload="sometimes")


class TestCampaignCachePreload:
    @pytest.mark.parametrize("cache_preload", ["specs", None])
    def test_specs_preload_skips_point_records(self, tmp_path, cache_preload):
        from repro.runner import (
            ResultStore,
            content_key,
            run_campaign,
            run_sharded_sweep,
        )
        from repro.runner.sharding import sharded_sweep_campaign

        grid = [float(v) for v in range(32_000, 32_020)]
        store_path = str(tmp_path / "s.sqlite")
        first = run_sharded_sweep(
            "sweep",
            "repro.core.batch:break_even_curve",
            "rate_bps",
            grid,
            store_path=store_path,
            shards=4,
        )
        assert first.ok
        # Older builds' merges also filed one record per grid point.
        store = ResultStore(store_path)
        store.append_many([
            {
                "key": content_key(
                    "point", "repro.core.batch:break_even_curve",
                    {"rate_bps": value},
                ),
                "job_id": f"sweep[{value}]",
                "status": "ok",
                "value": {"break_even_bits": value},
            }
            for value in grid
        ])
        assert len(store) == 25
        store.close()
        campaign = sharded_sweep_campaign(
            "sweep",
            "repro.core.batch:break_even_curve",
            "rate_bps",
            grid,
            store_path=store_path,
            shards=4,
        )
        rerun = run_campaign(
            campaign, store_path=store_path, cache_preload=cache_preload
        )
        assert rerun.status_counts() == {"cached": 5}
        # Only the campaign's own keys were warmed, not the 20 point
        # records beside them.
        assert rerun.cache_stats["size"] == 5

    def test_lazy_preload_matches_eager_outcome(self, tmp_path):
        from repro.runner import registry_campaign, run_campaign

        store_path = str(tmp_path / "r.jsonl")
        run_campaign(registry_campaign(["table1"]), store_path=store_path)
        rerun = run_campaign(
            registry_campaign(["table1"]),
            store_path=store_path,
            cache_preload="lazy",
        )
        assert rerun.status_counts() == {"cached": 1}

    def test_preload_with_explicit_cache_rejected(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.runner import Campaign, run_campaign

        with pytest.raises(ConfigurationError):
            run_campaign(
                Campaign("c"),
                cache=ResultCache(),
                cache_preload="lazy",
            )

    def test_unknown_preload_rejected(self):
        from repro.errors import ConfigurationError
        from repro.runner import Campaign, run_campaign

        with pytest.raises(ConfigurationError):
            run_campaign(Campaign("c"), cache_preload="bogus")

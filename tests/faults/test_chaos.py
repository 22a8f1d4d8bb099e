"""Chaos suite: random fault plans against a real sharded sweep.

The property under test is the robustness contract of the whole
pipeline: under any plan of injected raises, torn writes and (on the
process pool) hard worker crashes, a campaign either

* converges — every job succeeds (retries absorbing the faults) and
  the stored columns are *bit-exact* against an undisturbed baseline
  (name, dtype and bytes of every column) — or
* fails loudly — the result reports the failed jobs with their error
  text, or the injection surfaces as an exception.

What must never happen is the third thing: an "ok" result whose data
silently differs, or a store scan that crashes on quarantined damage.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults import FaultPlan, InjectedFault, reset
from repro.runner import (
    ResultStore,
    collect_arrays,
    run_campaign,
    run_jobs,
    sharded_sweep_campaign,
)
from repro.runner.integrity import damage_total
from repro.runner.jobs import JobSpec

GRID = [float(v) for v in range(12)]
TARGET = "runner_workers:array_curve"

#: Site patterns a random plan may aim at (all exercised by a sweep).
SITES = (
    "queue.attempt",
    "store.append",
    "store.iter",
    "store.get",
    "codec.unpack",
    "store.*",
    "*",
)

_rule = st.fixed_dictionaries(
    {
        "site": st.sampled_from(SITES),
        "action": st.sampled_from(["raise", "torn_write"]),
        "nth": st.integers(min_value=1, max_value=5),
        "times": st.integers(min_value=1, max_value=2),
    }
)

_rules = st.lists(_rule, min_size=0, max_size=4)


def _bits(store_path, campaign):
    """The sweep's stored columns as ``(name, dtype, bytes)`` triples."""
    columns = collect_arrays(store_path, campaign)
    return columns.points_kind, [
        (name, column.dtype.str, column.tobytes())
        for name, column in [("", columns.values), *columns.columns.items()]
    ]


def _sweep(store_path, **kwargs):
    return sharded_sweep_campaign(
        "chaos", TARGET, "values", GRID, store_path=store_path, shards=2,
        retries=3, **kwargs
    )


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The undisturbed sweep's stored columns (the bit-exact oracle)."""
    store_path = str(tmp_path_factory.mktemp("baseline") / "s.jsonl")
    campaign = _sweep(store_path)
    result = run_campaign(campaign, store_path=store_path)
    assert result.ok
    return _bits(store_path, campaign)


class TestChaosProperty:
    @given(rules=_rules)
    @settings(max_examples=25, deadline=None)
    def test_converges_bit_exact_or_fails_loudly(
        self, rules, baseline, tmp_path_factory
    ):
        reset()  # hypothesis reuses the process; no plan bleed-over
        store_path = str(tmp_path_factory.mktemp("chaos") / "s.jsonl")
        campaign = _sweep(store_path)
        plan = FaultPlan.from_json({"rules": rules})
        try:
            result = run_campaign(
                campaign, store_path=store_path, faults=plan
            )
        except (InjectedFault, ReproError):
            return  # loud is allowed; silent wrongness is not
        finally:
            reset()
        if result.ok:
            assert _bits(store_path, campaign) == baseline
        else:
            assert result.failures
            for job_id in result.failures:
                assert result.results[job_id].error
        # Quarantined damage never breaks a scan.
        store = ResultStore(store_path)
        try:
            stats = store.verify()
        finally:
            store.close()
        assert damage_total(stats) >= 0


#: Fault shapes the pool must survive (or report loudly): a hard
#: worker crash on a shard's or the merge's first attempt, plus the
#: serial property's raises and torn writes, fired in worker processes.
_pool_rules = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {
                "site": st.just("queue.attempt"),
                "action": st.just("crash"),
                "job_id": st.sampled_from(
                    ["chaos/shard*#1", "chaos/merge#1"]
                ),
            }
        ),
        _rule,
    ),
    min_size=0,
    max_size=3,
)


def _pool_chaos(rules, baseline, tmp_path_factory, jobs):
    """One random fault plan over a sweep on a ``jobs``-worker pool."""
    reset()
    store_path = str(tmp_path_factory.mktemp("pchaos") / "s.jsonl")
    campaign = _sweep(store_path)
    plan = FaultPlan.from_json({"rules": rules})
    try:
        result = run_campaign(
            campaign, store_path=store_path, jobs=jobs,
            executor="pool", faults=plan,
        )
    except (InjectedFault, ReproError):
        result = None  # loud is allowed; silent wrongness is not
    finally:
        reset()
    if result is not None:
        if result.ok:
            assert _bits(store_path, campaign) == baseline
        else:
            assert result.failures
            for job_id in result.failures:
                assert result.results[job_id].error
    store = ResultStore(store_path)
    try:
        stats = store.verify()
    finally:
        store.close()
    assert damage_total(stats) >= 0


class TestPoolChaosProperty:
    @given(rules=_pool_rules)
    @settings(max_examples=40, deadline=None)
    def test_pool_converges_bit_exact_or_fails_loudly(
        self, rules, baseline, tmp_path_factory
    ):
        """The chaos contract, re-proven over real worker processes.

        Random worker-crash/raise/torn-write plans over a real sharded
        sweep on a two-worker pool must either converge bit-exact
        against the undisturbed baseline or fail loudly — and in both
        cases a full store scan must complete, any damage quarantined.
        """
        _pool_chaos(rules, baseline, tmp_path_factory, jobs=2)

    @given(rules=_pool_rules)
    @settings(max_examples=40, deadline=None)
    def test_one_worker_pool_converges_bit_exact_or_fails_loudly(
        self, rules, baseline, tmp_path_factory
    ):
        """The same contract on one worker, with a shard queued behind it.

        This is the pool ``repro sweep`` runs at ``--jobs 1 --executor
        pool``: every shard but the last has an attempt queued behind
        it when a crash breaks the pool.
        """
        _pool_chaos(rules, baseline, tmp_path_factory, jobs=1)


def _shard_kill(tmp_path, baseline, jobs):
    """Crash shard 0's first attempt on a ``jobs``-worker pool."""
    store_path = str(tmp_path / "s.jsonl")
    campaign = _sweep(store_path)
    plan = {
        "rules": [
            {"site": "queue.attempt", "action": "crash",
             "job_id": "chaos/shard0000#1"},
        ]
    }
    events = []
    result = run_campaign(
        campaign, store_path=store_path, jobs=jobs, executor="pool",
        faults=plan, observers=[events.append],
    )
    assert result.ok
    assert result.results["chaos/shard0000"].attempts == 2
    assert _bits(store_path, campaign) == baseline
    kinds = [
        e.kind for e in events if e.job_id == "chaos/shard0000"
    ]
    assert "lost" in kinds
    assert "requeued" in kinds
    assert kinds.count("finished") == 1
    store = ResultStore(store_path)
    try:
        stats = store.verify()
    finally:
        store.close()
    assert damage_total(stats) == 0
    return events


class TestCannedScenarios:
    def test_torn_write_quarantined_then_retried(self, tmp_path, baseline):
        store_path = str(tmp_path / "s.jsonl")
        campaign = _sweep(store_path)
        # Aimed at a shard record's cache put (job-id context): that
        # write happens in the scheduler after the attempt succeeded,
        # so the injected power loss fails the run loudly.
        plan = {
            "rules": [
                {"site": "store.append", "action": "torn_write",
                 "bytes": 400, "job_id": "chaos/shard0001"},
            ]
        }
        with pytest.raises(InjectedFault):
            run_campaign(campaign, store_path=store_path, faults=plan)
        # A re-run against the same store recomputes the torn shard
        # (its record is quarantined), reuses the intact one, and
        # converges bit-exact.
        result = run_campaign(campaign, store_path=store_path)
        assert result.status_counts() == {"cached": 1, "ok": 2}
        assert _bits(store_path, campaign) == baseline
        store = ResultStore(store_path)
        try:
            stats = store.verify()
        finally:
            store.close()
        assert damage_total(stats) >= 1  # the tear is still on disk

    def test_worker_crash_converges_across_pool_replacement(
        self, tmp_path
    ):
        # A crash kills the worker process hard (os._exit); the
        # "<job_id>#<attempt>" site context makes the rule fire on the
        # first attempt only, whichever replacement worker runs it.
        plan = {
            "rules": [
                {"site": "queue.attempt", "action": "crash",
                 "job_id": "c1#1"},
            ]
        }
        specs = [
            JobSpec("c1", "callable", "runner_workers:add",
                    params={"a": 1, "b": 2}, retries=2),
            JobSpec("c2", "callable", "runner_workers:add",
                    params={"a": 3, "b": 4}, retries=2),
        ]
        results = run_jobs(specs, jobs=2, faults=plan)
        assert results["c1"].status == "ok" and results["c1"].value == 3
        assert results["c1"].attempts == 2
        assert results["c2"].status == "ok" and results["c2"].value == 7

    def test_pool_shard_kill_converges_bit_exact(self, tmp_path, baseline):
        """A shard's pool worker dies hard mid-sweep; the run recovers.

        The crashed attempt emits lost/requeued, the suspect re-runs
        alone on a fresh single-worker pool, the merged points stay
        bit-exact, and the store verifies clean — a killed worker
        never loses or duplicates a result.
        """
        _shard_kill(tmp_path, baseline, jobs=2)

    def test_one_worker_pool_shard_kill_converges_bit_exact(
        self, tmp_path, baseline
    ):
        """The same kill on one worker: the shard queued behind the
        killed one moves to the replacement pool with no event."""
        events = _shard_kill(tmp_path, baseline, jobs=1)
        kinds = [e.kind for e in events if e.job_id == "chaos/shard0001"]
        assert "lost" not in kinds
        assert kinds.count("started") == 1

"""Property tests for the campaign engine.

Two engine invariants back the whole design:

* **Determinism** — a parallel run is a bit-identical replay of the
  serial run (same scalars, same ordering of the result of record).
* **Stable keys** — a spec's content key depends only on (kind, target,
  params) and is identical across parameter orderings, interpreter
  processes, and runs (no ``hash()`` salting anywhere).
"""

from __future__ import annotations

import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ibm_mems_prototype
from repro.runner import registry_campaign, run_campaign
from repro.runner.jobs import JobSpec, freeze_params, thaw_params

#: Cheap experiments used for the parallel-equivalence checks.
FAST_IDS = ["table1", "breakeven", "capacity-example", "fig2a"]

#: JSON-representable parameter values (no NaN: NaN never compares equal,
#: and job parameters are concrete configuration values).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
params_strategy = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(
        scalars,
        st.lists(scalars, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=5), scalars,
                        max_size=3),
    ),
    max_size=5,
)


class TestKeyStability:
    @given(params=params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_key_invariant_under_param_ordering(self, params):
        spec = JobSpec("j", "callable", "m:f", params)
        reordered = dict(reversed(list(params.items())))
        assert JobSpec("j", "callable", "m:f", reordered).key == spec.key

    @given(params=params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_freeze_thaw_roundtrip(self, params):
        frozen = freeze_params(params)
        thawed = thaw_params(frozen)
        # Lists and tuples normalise to lists; dicts round-trip exactly.
        assert freeze_params(thawed) == frozen
        assert JobSpec("j", "callable", "m:f", params).params_dict() == {
            k: thaw_params(freeze_params(v)) for k, v in params.items()
        }

    @given(params=params_strategy)
    @settings(max_examples=60, deadline=None)
    def test_key_recomputation_is_pure(self, params):
        spec = JobSpec("j", "callable", "m:f", params)
        assert spec.key == spec.key
        clone = JobSpec("j", "callable", "m:f", spec.params_dict())
        assert clone.key == spec.key

    def test_keys_stable_across_interpreter_processes(self):
        """The content hash must survive a fresh interpreter (no salting)."""
        specs = [
            JobSpec("table1"),
            JobSpec("j", "callable", "m:f",
                    {"x": 1, "rate": 1024.5, "tags": ["a", "b"]}),
            JobSpec("d", "callable", "m:g",
                    {"device": ibm_mems_prototype()}),
        ]
        code = (
            "from repro.runner.jobs import JobSpec\n"
            "from repro.config import ibm_mems_prototype\n"
            "print(JobSpec('table1').key)\n"
            "print(JobSpec('j', 'callable', 'm:f',"
            " {'tags': ['a', 'b'], 'rate': 1024.5, 'x': 1}).key)\n"
            "print(JobSpec('d', 'callable', 'm:g',"
            " {'device': ibm_mems_prototype()}).key)\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=os.environ.copy(),
        ).stdout.split()
        assert output == [spec.key for spec in specs]


class TestParallelEqualsSerial:
    def test_campaign_headlines_bit_identical(self):
        serial = run_campaign(registry_campaign(FAST_IDS), jobs=1)
        parallel = run_campaign(registry_campaign(FAST_IDS), jobs=4)
        assert serial.ok and parallel.ok
        assert parallel.headlines() == serial.headlines()
        # Bit-identical, not approximately equal: compare exact reprs.
        for job_id, headline in serial.headlines().items():
            for name, value in headline.items():
                assert repr(parallel.headlines()[job_id][name]) == (
                    repr(value)
                ), f"{job_id}.{name} differs"

    def test_cached_rerun_bit_identical(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        first = run_campaign(
            registry_campaign(FAST_IDS), jobs=1, store_path=store_path
        )
        rerun = run_campaign(
            registry_campaign(FAST_IDS), jobs=1, store_path=store_path
        )
        assert rerun.status_counts() == {"cached": len(FAST_IDS)}
        assert rerun.headlines() == first.headlines()

"""JobSpec/JobResult unit tests: keys, freezing, execution, records."""

from __future__ import annotations

import math

import pytest

from repro.config import ibm_mems_prototype
from repro.errors import ConfigurationError
from repro.experiments.base import ExperimentResult
from repro.runner.jobs import (
    JobResult,
    JobSpec,
    STATUS_OK,
    canonical_json,
    content_key,
    execute,
    freeze_params,
    json_safe,
    resolve_callable,
    thaw_params,
)


class TestFreezeThaw:
    def test_roundtrip_nested(self):
        params = {"a": 1, "b": [1, 2, {"c": 3.5}], "d": {"e": None}}
        frozen = freeze_params(params)
        assert thaw_params(frozen) == {
            "a": 1, "b": [1, 2, {"c": 3.5}], "d": {"e": None},
        }

    def test_frozen_is_hashable_and_picklable(self):
        import pickle

        frozen = freeze_params({"x": [1, 2], "y": {"z": 3}})
        hash(frozen)
        assert pickle.loads(pickle.dumps(frozen)) == frozen

    def test_scalars_pass_through(self):
        assert freeze_params(3.5) == 3.5
        assert thaw_params("text") == "text"


class TestContentKey:
    def test_order_independent(self):
        a = JobSpec("j", "callable", "m:f", {"x": 1, "y": 2})
        b = JobSpec("j", "callable", "m:f", {"y": 2, "x": 1})
        assert a.key == b.key

    def test_job_id_does_not_enter_key(self):
        a = JobSpec("first", "callable", "m:f", {"x": 1})
        b = JobSpec("second", "callable", "m:f", {"x": 1})
        assert a.key == b.key

    def test_kind_target_params_all_enter_key(self):
        base = JobSpec("j", "callable", "m:f", {"x": 1})
        assert base.key != JobSpec("j", "callable", "m:g", {"x": 1}).key
        assert base.key != JobSpec("j", "callable", "m:f", {"x": 2}).key
        assert base.key != JobSpec("j", "experiment", "m:f", {"x": 1}).key

    def test_key_is_sha256_hex(self):
        key = JobSpec("table1").key
        assert len(key) == 64
        int(key, 16)

    def test_dataclass_params_hash_by_class_and_fields(self):
        device = ibm_mems_prototype()
        tweaked = device.replace(probe_write_cycles=200.0)
        a = content_key("callable", "m:f", freeze_params({"d": device}))
        b = content_key("callable", "m:f", freeze_params({"d": tweaked}))
        assert a != b

    def test_unsupported_param_type_rejected(self):
        with pytest.raises(ConfigurationError):
            content_key("callable", "m:f", freeze_params({"x": object()}))

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestJobSpec:
    def test_experiment_target_defaults_to_job_id(self):
        assert JobSpec("table1").target == "table1"

    def test_callable_requires_target(self):
        with pytest.raises(ConfigurationError):
            JobSpec("j", kind="callable")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("j", kind="mystery", target="m:f")

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("table1", retries=-1)

    def test_params_dict_roundtrip(self):
        spec = JobSpec("j", "callable", "m:f", {"x": 1, "y": [2, 3]})
        assert spec.params_dict() == {"x": 1, "y": [2, 3]}


class TestExecute:
    def test_experiment_job_returns_experiment_result(self):
        result = execute(JobSpec("table1"))
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "table1"

    def test_experiment_overrides_forwarded(self):
        result = execute(
            JobSpec("sim-validate", params={"cycles_per_point": 5})
        )
        assert result.experiment_id == "sim-validate"

    def test_callable_job(self):
        spec = JobSpec(
            "kb", "callable", "repro.units:kb_to_bits", {"kilobytes": 1.0}
        )
        assert execute(spec) == 8000.0

    def test_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError):
            execute(JobSpec("fig99"))

    def test_bad_callable_targets(self):
        with pytest.raises(ConfigurationError):
            resolve_callable("no-colon")
        with pytest.raises(ConfigurationError):
            resolve_callable("definitely.not.a.module:f")
        with pytest.raises(ConfigurationError):
            resolve_callable("repro.units:not_there")
        with pytest.raises(ConfigurationError):
            resolve_callable("repro.units:BITS_PER_BYTE")


class TestJsonSafe:
    def test_experiment_result_keeps_findings(self):
        result = execute(JobSpec("table1"))
        safe = json_safe(result)
        assert safe["experiment_id"] == "table1"
        assert safe["headline"] == result.headline
        assert "Table I" in safe["rendered"]

    def test_tuples_become_lists(self):
        assert json_safe({"t": (1, 2)}) == {"t": [1, 2]}

    def test_infinity_survives(self):
        assert json_safe({"x": math.inf}) == {"x": math.inf}

    def test_unserialisable_values_degrade_to_repr(self):
        # The store must never fail to persist a result that already
        # succeeded, so arbitrary objects fall back to their repr.
        value = json_safe({"obj": object()})
        assert value["obj"].startswith("<object object")

    def test_bytes_pass_through(self):
        # Binary column payloads (repro.runner.codec) stay bytes; the
        # store backends own their encoding (base64 / native BLOBs).
        value = json_safe({"data": b"\x00\x01", "ba": bytearray(b"\x02")})
        assert value["data"] == b"\x00\x01"
        assert value["ba"] == b"\x02"

    def test_numpy_columns_store_as_the_lists_they_replaced(self):
        # Batch targets return numpy columns; a plain campaign job of
        # one stores exactly what its old list return stored.
        import json

        import numpy as np

        from repro.core.batch import evaluate_rate_grid

        arrays = evaluate_rate_grid([32e3, 1e6, 3.5e6, 4.2e6, 5e6])
        lists = {name: column.tolist() for name, column in arrays.items()}
        assert len(set(lists["dominant"])) > 1
        safe = json_safe(arrays)
        assert safe == json_safe(lists)
        assert json.dumps(safe) == json.dumps(json_safe(lists))
        for name, column in safe.items():
            assert [type(v) for v in column] == [type(v) for v in lists[name]]
        scalars = json_safe(
            [np.float64(1.5), np.int64(3), np.bool_(True), np.str_("E")]
        )
        assert [type(v) for v in scalars] == [float, int, bool, str]


class TestJobResult:
    def test_record_roundtrip(self):
        spec = JobSpec("table1")
        result = JobResult(
            job_id="table1",
            key=spec.key,
            status=STATUS_OK,
            value=execute(spec),
            attempts=1,
            duration_s=0.5,
        )
        record = result.to_record(spec)
        assert record["kind"] == "experiment"
        back = JobResult.from_record(record)
        assert back.key == spec.key
        assert back.headline() == result.headline()

    def test_headline_of_live_and_stored_values_agree(self):
        spec = JobSpec("breakeven")
        live = JobResult("breakeven", spec.key, STATUS_OK, execute(spec))
        stored = JobResult.from_record(live.to_record(spec))
        assert live.headline() == stored.headline()
        assert live.headline()  # non-empty

    def test_headline_empty_for_plain_values(self):
        result = JobResult("j", "k", STATUS_OK, value=3.5)
        assert result.headline() == {}

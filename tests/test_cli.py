"""CLI tests, driven through main(argv), or through a fresh interpreter
under a timeout where a command could run forever."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

#: The directory holding the ``repro`` package these tests import.
SOURCE_ROOT = str(Path(repro.__file__).resolve().parents[1])


def run_repro(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` in a fresh interpreter, under a timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out
        assert "tradeoff10" in out

    def test_descriptions_aligned_in_columns(self, capsys):
        from repro.experiments import list_experiments

        main(["list"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(list_experiments())
        width = max(len(name) for name, _ in list_experiments())
        for line in lines:
            # Id in the left column, description starting at width + 2.
            assert line[:width].rstrip() in dict(list_experiments())
            assert line[width:width + 2] == "  "
            assert line[width + 2] != " "


class TestRun:
    def test_runs_single_experiment(self, capsys):
        assert main(["run", "breakeven"]) == 0
        out = capsys.readouterr().out
        assert "Break-even" in out
        assert "disk/MEMS" in out

    def test_runs_multiple(self, capsys):
        assert main(["run", "table1", "capacity-example"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "utilisation" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_unknown_id_rejected_before_anything_runs(self, capsys):
        # Validation happens up front: the known experiment in the same
        # invocation must not produce output before the failure.
        assert main(["run", "table1", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "fig99" in captured.err
        assert "Table I" not in captured.out

    def test_parallel_run_matches_serial(self, capsys):
        assert main(["run", "table1", "breakeven"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "table1", "breakeven", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_duplicate_ids_render_twice_under_jobs(self, capsys):
        assert main(["run", "table1", "table1"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "table1", "table1", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "results.txt"
        assert main(["run", "table1", "--output", str(target)]) == 0
        assert "Table I" in target.read_text(encoding="utf-8")
        assert f"(wrote {target})" in capsys.readouterr().out


class TestCampaign:
    def test_runs_named_experiments(self, capsys):
        code = main(["campaign", "table1", "breakeven", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign" in out
        assert "2 ok" in out

    def test_progress_lines_by_default(self, capsys):
        assert main(["campaign", "table1"]) == 0
        out = capsys.readouterr().out
        assert "[ 1/1] ok" in out

    def test_store_enables_cached_rerun(self, capsys, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert main(
            ["campaign", "table1", "breakeven", "--store", store,
             "--quiet"]
        ) == 0
        first = capsys.readouterr().out
        assert "2 ok" in first
        assert main(
            ["campaign", "table1", "breakeven", "--store", store,
             "--quiet"]
        ) == 0
        rerun = capsys.readouterr().out
        assert "2 cached" in rerun
        assert "2 hits" in rerun

    def test_parallel_campaign(self, capsys):
        code = main(
            ["campaign", "table1", "breakeven", "--jobs", "2", "--quiet"]
        )
        assert code == 0
        assert "2 ok" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["campaign", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_store_backend_without_store_errors(self, capsys):
        assert main(
            ["campaign", "table1", "--store-backend", "sqlite", "--quiet"]
        ) == 2
        assert "store_path" in capsys.readouterr().err

    def test_sqlite_store_backend(self, capsys, tmp_path):
        store = str(tmp_path / "results.sqlite")
        args = ["campaign", "table1", "--store", store,
                "--store-backend", "sqlite", "--quiet"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 cached" in capsys.readouterr().out


class TestStore:
    def populate(self, tmp_path, name="results.jsonl"):
        store = str(tmp_path / name)
        assert main(
            ["campaign", "table1", "breakeven", "--store", store,
             "--quiet"]
        ) == 0
        return store

    def test_info_reports_backend_and_counts(self, capsys, tmp_path):
        store = self.populate(tmp_path)
        capsys.readouterr()
        assert main(["store", "info", store]) == 0
        out = capsys.readouterr().out
        assert "records  : 2" in out
        assert "ok keys  : 2" in out
        assert "provenance" in out

    def test_compact_drops_superseded(self, capsys, tmp_path):
        from repro.runner import ResultStore

        store = self.populate(tmp_path)
        # Duplicate history: re-append the same records.
        handle = ResultStore(store)
        handle.append_many(handle.load())
        capsys.readouterr()
        assert main(["store", "compact", store]) == 0
        out = capsys.readouterr().out
        assert "4 -> 2 records" in out
        assert len(ResultStore(store)) == 2

    def test_migrate_then_campaign_resolves_from_cache(
        self, capsys, tmp_path
    ):
        store = self.populate(tmp_path)
        target = str(tmp_path / "results.sqlite")
        assert main(["store", "migrate", store, target]) == 0
        assert "migrated 2 records" in capsys.readouterr().out
        assert main(
            ["campaign", "table1", "breakeven", "--store", target,
             "--quiet"]
        ) == 0
        assert "2 cached" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["results.jsonl", "results.sqlite"])
    def test_store_with_service_run_records_still_serves(
        self, capsys, tmp_path, name
    ):
        # The removed campaign service wrote one ``service.run/<id>``
        # record per run beside its jobs' results.  Such a store stays
        # an ordinary store: it verifies and serves a cached campaign.
        from repro.runner import ResultStore

        store = self.populate(tmp_path, name)
        handle = ResultStore(store)
        handle.append(
            {
                "key": "service.run/20261017T193748-7062e1da",
                "job_id": "service/20261017T193748-7062e1da",
                "status": "ok",
                "value": {
                    "schema": "repro.campaign-run/1",
                    "run_id": "20261017T193748-7062e1da",
                    "state": "done",
                    "counts": {"ok": 2},
                },
            }
        )
        handle.close()
        capsys.readouterr()
        assert main(["store", "verify", store]) == 0
        assert main(["store", "info", store]) == 0
        assert "payload other: 1 records" in capsys.readouterr().out
        assert main(
            ["campaign", "table1", "breakeven", "--store", store,
             "--quiet"]
        ) == 0
        assert "2 cached" in capsys.readouterr().out

    def test_migrate_missing_source_fails_cleanly(self, capsys, tmp_path):
        code = main(
            ["store", "migrate", str(tmp_path / "absent.jsonl"),
             str(tmp_path / "out.sqlite")]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_compact_and_info_missing_store_fail_cleanly(
        self, capsys, tmp_path
    ):
        for command in ("compact", "info"):
            code = main(["store", command, str(tmp_path / "absent.jsonl")])
            assert code == 2
            assert "does not exist" in capsys.readouterr().err


class TestDimension:
    def test_feasible_goal(self, capsys):
        code = main(
            ["dimension", "--rate", "1024", "--energy", "0.7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dictated by Lsp" in out
        assert "needs >=" in out

    def test_infeasible_goal_exit_code(self, capsys):
        code = main(
            ["dimension", "--rate", "2048", "--energy", "0.8"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out

    def test_endurance_flags(self, capsys):
        code = main(
            [
                "dimension", "--rate", "4096", "--energy", "0.7",
                "--springs", "1e12", "--probe-cycles", "200",
            ]
        )
        assert code == 0

    def test_invalid_goal_rejected(self, capsys):
        assert main(["dimension", "--rate", "1024", "--energy", "2"]) == 2


class TestPlot:
    def test_plots_fig3a_panel(self, capsys):
        code = main(["plot", "--energy", "0.8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "regions: C  E  X" in out
        assert "required buffer" in out
        assert "buffer capacity (kB)" in out

    def test_plot_custom_endurance(self, capsys):
        code = main(
            [
                "plot", "--energy", "0.7", "--springs", "1e12",
                "--probe-cycles", "200", "--width", "48", "--height", "10",
            ]
        )
        assert code == 0
        assert "regions: C  E" in capsys.readouterr().out


class TestSimulate:
    def test_shutdown_policy(self, capsys):
        code = main(
            [
                "simulate", "--rate", "1024", "--buffer-kb", "20",
                "--duration", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "refill cycles" in out
        assert "model agreement" in out

    def test_always_on(self, capsys):
        code = main(
            [
                "simulate", "--rate", "1024", "--buffer-kb", "20",
                "--duration", "5", "--always-on",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AlwaysOnPipeline" in out

    def test_underrun_reported_as_error(self, capsys):
        code = main(
            [
                "simulate", "--rate", "1024", "--buffer-kb", "0.1",
                "--duration", "5",
            ]
        )
        assert code == 2
        assert "underrun" in capsys.readouterr().err


class TestNonFiniteArguments:
    """NaN and inf fail at once with exit 2, before any work or output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--rate", "1024", "--buffer-kb", "20", "--duration", "inf"),
            ("--rate", "nan", "--buffer-kb", "20", "--duration", "1"),
            ("--rate", "1024", "--buffer-kb", "20", "--duration", "nan"),
            ("--rate", "1024", "--buffer-kb", "nan", "--duration", "1"),
            ("--rate", "1024", "--buffer-kb", "inf", "--duration", "1"),
            ("--rate", "nan", "--buffer-kb", "20", "--duration", "1",
             "--always-on"),
        ],
        ids=[
            "duration-inf", "rate-nan", "duration-nan", "buffer-nan",
            "buffer-inf", "always-on-rate-nan",
        ],
    )
    def test_simulate(self, argv):
        completed = run_repro("simulate", *argv)
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "finite" in completed.stderr

    @pytest.mark.parametrize(
        "grid",
        [("--min", "nan", "--max", "4096e3"),
         ("--min", "32e3", "--max", "inf"),
         ("--values", "nan,64000"),
         ("--values", "inf")],
        ids=["min-nan", "max-inf", "values-nan", "values-inf"],
    )
    def test_sweep_writes_no_store(self, tmp_path, grid):
        store = tmp_path / "sweep.sqlite"
        completed = run_repro(
            "sweep", "repro.core.batch:break_even_curve",
            "--parameter", "rate_bps", *grid, "--points", "16",
            "--store", str(store), "--quiet",
        )
        assert completed.returncode == 2
        assert "finite" in completed.stderr
        assert not store.exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_kernels_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["kernels", "info"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'kernels'" in capsys.readouterr().err

    def test_serve_subcommand_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--store", str(tmp_path / "s.jsonl")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_campaign_watch_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "table1", "--watch", "http://127.0.0.1:8321"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --watch" in capsys.readouterr().err

    def test_module_entry_point(self):
        import repro.__main__  # noqa: F401 - import side-effect free


class TestSweepCommand:
    TARGET = "repro.core.batch:break_even_curve"

    def test_sharded_sweep_end_to_end(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.sqlite")
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--min", "32000", "--max", "4096000", "--points", "25",
            "--shards", "4", "--store", store, "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "25 points over 4 shards" in out
        assert "break_even_bits" in out

    def test_sweep_store_holds_shard_payloads_only(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.sqlite")
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--min", "32000", "--max", "4096000", "--points", "25",
            "--shards", "4", "--store", store, "--quiet",
        ]) == 0
        assert "columnar blocks" not in capsys.readouterr().out
        assert main(["store", "verify", store]) == 0
        capsys.readouterr()
        assert main(["store", "info", store]) == 0
        info = capsys.readouterr().out
        assert "payload columnar-shard: 4 records" in info
        assert "columnar-block" not in info

    def test_rerun_resolves_from_cache(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        argv = [
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--values", "32000,64000,128000",
            "--shards", "2", "--store", store, "--quiet",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "3 cached" in out

    def test_explicit_values_grid(self, capsys, tmp_path):
        store = str(tmp_path / "sweep.jsonl")
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--values", "32000,64000",
            "--store", store, "--quiet",
        ]) == 0
        assert "2 points" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "range_flags",
        [["--min", "1", "--max", "2"], ["--points", "16"], ["--linear"]],
        ids=["min-max", "points", "linear"],
    )
    def test_values_and_range_conflict(self, capsys, tmp_path, range_flags):
        store = tmp_path / "s.jsonl"
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--values", "32000,64000", *range_flags,
            "--store", str(store),
        ]) == 2
        assert "not both" in capsys.readouterr().err
        assert not store.exists()

    def test_missing_grid_rejected(self, capsys, tmp_path):
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--store", str(tmp_path / "s.jsonl"),
        ]) == 2
        assert "--values or both --min and --max" in (
            capsys.readouterr().err
        )

    def test_removed_codec_settings_are_ignored(self, tmp_path, monkeypatch):
        """The per-point codec and its merge chunk are gone, not read."""
        monkeypatch.setenv("REPRO_POINT_CODEC", "json")
        monkeypatch.setenv("REPRO_MERGE_FLUSH_CHUNK", "abc")
        store = str(tmp_path / "s.sqlite")
        swept = run_repro(
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--values", "32000,64000,128000", "--shards", "2",
            "--store", store, "--store-backend", "sqlite", "--quiet",
        )
        assert swept.returncode == 0, swept.stderr
        info = run_repro("store", "info", store)
        assert info.returncode == 0, info.stderr
        payloads = [
            line.split(":")[0].split()[-1]
            for line in info.stdout.splitlines()
            if line.strip().startswith("payload ")
        ]
        assert payloads == ["columnar-shard", "job"]

    def test_log_grid_needs_positive_min(self, capsys, tmp_path):
        assert main([
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--min", "0", "--max", "10", "--points", "5",
            "--store", str(tmp_path / "s.jsonl"),
        ]) == 2
        assert "--min > 0" in capsys.readouterr().err


class TestTelemetryCli:
    TARGET = "repro.core.batch:break_even_curve"

    @pytest.fixture(autouse=True)
    def fresh_telemetry(self):
        from repro.telemetry import reset_telemetry

        reset_telemetry()
        yield
        reset_telemetry()

    def swept(self, tmp_path, capsys, *extra):
        store = str(tmp_path / "sweep.sqlite")
        argv = [
            "sweep", self.TARGET,
            "--parameter", "rate_bps",
            "--min", "32000", "--max", "4096000", "--points", "30",
            "--shards", "3", "--jobs", "2",
            "--store", store, "--quiet", *extra,
        ]
        assert main(argv) == 0
        return store, capsys.readouterr().out

    def test_sweep_writes_valid_trace_and_sidecar(self, capsys, tmp_path):
        from repro.telemetry import load_trace, read_sidecar, validate_trace

        trace = str(tmp_path / "out.trace.json")
        sidecar = str(tmp_path / "out.telemetry.jsonl")
        _, out = self.swept(
            tmp_path, capsys, "--trace", trace, "--telemetry", sidecar,
        )
        assert f"(wrote trace {trace})" in out
        assert f"(wrote sidecar {sidecar})" in out
        events = validate_trace(load_trace(trace))
        assert any(
            e["ph"] == "X" and e["name"] == "job.execute" for e in events
        )
        data = read_sidecar(sidecar)
        assert data["metrics"]["counters"]["codec.pack.calls"] >= 3
        assert data["metrics"]["workers"]

    def test_trace_env_var_is_the_fallback(
        self, capsys, tmp_path, monkeypatch
    ):
        trace = str(tmp_path / "env.trace.json")
        monkeypatch.setenv("REPRO_TRACE", trace)
        _, out = self.swept(tmp_path, capsys)
        assert f"(wrote trace {trace})" in out

    def test_trace_export_round_trips_the_sidecar(self, capsys, tmp_path):
        from repro.telemetry import load_trace, validate_trace

        sidecar = str(tmp_path / "out.telemetry.jsonl")
        self.swept(tmp_path, capsys, "--telemetry", sidecar)
        assert main(["trace", "export", sidecar]) == 0
        out = capsys.readouterr().out
        exported = sidecar + ".trace.json"
        assert exported in out
        assert validate_trace(load_trace(exported))

    def test_telemetry_summary_reports_the_run(self, capsys, tmp_path):
        sidecar = str(tmp_path / "out.telemetry.jsonl")
        self.swept(tmp_path, capsys, "--telemetry", sidecar)
        assert main(["telemetry", "summary", sidecar]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "job.execute" in out
        assert "codec.pack.calls" in out

    def test_bad_sidecar_fails_cleanly(self, capsys, tmp_path):
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('{"t":"event"}\n')
        assert main(["telemetry", "summary", bad]) == 2
        assert "sidecar" in capsys.readouterr().err
        assert main(["trace", "export", bad]) == 2

    def test_store_info_timings_and_bytes_descending(
        self, capsys, tmp_path
    ):
        # Pinned: REPRO_STORE_BACKEND=jsonl outranks the file extension.
        store, _ = self.swept(tmp_path, capsys, "--store-backend", "sqlite")
        assert main(["store", "info", store, "--timings"]) == 0
        out = capsys.readouterr().out
        assert "timings  :" in out
        assert "store.sqlite.iter_s" in out
        sizes = [
            int(line.rsplit(" ", 2)[-2].rstrip(","))
            for line in out.splitlines()
            if line.startswith("  payload ")
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_run_with_trace_matches_plain_run(self, capsys, tmp_path):
        assert main(["run", "breakeven"]) == 0
        plain = capsys.readouterr().out
        trace = str(tmp_path / "run.trace.json")
        assert main(["run", "breakeven", "--trace", trace]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain)
        assert f"(wrote trace {trace})" in traced

    def test_campaign_with_trace_writes_the_file(self, capsys, tmp_path):
        import os as _os

        trace = str(tmp_path / "camp.trace.json")
        assert main([
            "campaign", "breakeven", "--quiet", "--trace", trace,
        ]) == 0
        assert f"(wrote trace {trace})" in capsys.readouterr().out
        assert _os.path.exists(trace)

"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
* ``repro list`` — show all registered experiments,
* ``repro run <id> [...]`` — regenerate one or more paper artefacts
  (``--jobs N`` fans them out over worker processes),
* ``repro run all`` — regenerate everything,
* ``repro campaign [<id> ...] --jobs 4 --store results.jsonl`` — run a
  batch through the orchestration engine with caching/resume
  (``--store-backend sqlite`` for indexed million-record histories),
* ``repro sweep <target> --parameter rate_bps --min 32e3 --max 4096e3
  --points 1000000 --shards 16 --jobs 4 --store sweep.sqlite`` — run
  one importable batch target over a grid as a sharded, resumable,
  memory-bounded campaign,
* ``repro store info|compact|verify|migrate`` — inspect, compact
  (latest record per key), integrity-check, or convert a result store
  between the JSONL and SQLite backends and from the record forms
  older builds wrote (``info --timings`` adds backend call latencies),
* ``repro trace export <sidecar>`` — convert a telemetry sidecar
  (``--telemetry`` / ``$REPRO_TELEMETRY``) into ``chrome://tracing``
  JSON; ``repro telemetry summary <sidecar>`` prints the per-phase
  metric rollup instead,
* ``repro dimension --rate 1024 --energy 0.8 --capacity 0.88 --lifetime 7``
  — answer one §IV.C design question directly,
* ``repro simulate --rate 1024 --buffer-kb 20 --duration 60`` — run the
  DES pipeline on one operating point and print the report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .errors import ReproError


def _jobs_default() -> int:
    """``--jobs`` default: ``$REPRO_JOBS``, else serial."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _add_run_options(
    parser: argparse.ArgumentParser,
    *,
    store: bool = False,
    store_required: bool = False,
) -> None:
    """The one shared option group every run-shaped command uses.

    All commands spell these flags identically, and each has an
    environment fallback so scripts and CI set them once:
    ``--jobs``/``$REPRO_JOBS``, ``--store``/``$REPRO_STORE``,
    ``--store-backend``/``$REPRO_STORE_BACKEND``,
    ``--trace``/``$REPRO_TRACE``, ``--telemetry``/``$REPRO_TELEMETRY``.
    """
    parser.add_argument(
        "--jobs", type=int, default=_jobs_default(), metavar="N",
        help="worker processes (default: $REPRO_JOBS, else 1 = serial)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "pool"),
        default=os.environ.get("REPRO_EXECUTOR") or None,
        help=(
            "execution backend: 'serial' runs in-process, 'pool' "
            "fans out over a process pool "
            "(default: $REPRO_EXECUTOR, else serial/pool by --jobs)"
        ),
    )
    if store:
        env_store = os.environ.get("REPRO_STORE") or None
        parser.add_argument(
            "--store", metavar="FILE", default=env_store,
            required=store_required and env_store is None,
            help=(
                "persistent result store (default: $REPRO_STORE)"
                + ("" if store_required else "; enables cached re-runs")
            ),
        )
        parser.add_argument(
            "--store-backend", choices=("jsonl", "sqlite"), default=None,
            help=(
                "persistence backend for --store (default: auto-detect "
                "existing format, then $REPRO_STORE_BACKEND, then the "
                "path extension)"
            ),
        )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help=(
            "write a Chrome trace-event file for this run "
            "(default: $REPRO_TRACE)"
        ),
    )
    parser.add_argument(
        "--telemetry", metavar="FILE", default=None,
        dest="telemetry_file",
        help=(
            "write a JSONL telemetry sidecar for this run "
            "(default: $REPRO_TELEMETRY when it names a path)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Buffering Implications for the Design Space "
            "of Streaming MEMS Storage' (DATE 2011)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list registered experiments")

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments by id (or 'all')"
    )
    run_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    run_parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the rendered results to FILE",
    )
    _add_run_options(run_parser)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a batch through the orchestration engine",
        description=(
            "Run experiments as one campaign: parallel workers, "
            "retry-on-failure, and (with --store) content-addressed "
            "caching that makes re-runs and resumption near-instant."
        ),
    )
    campaign_parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT", default=[],
        help="experiment ids (default: every registered experiment)",
    )
    _add_run_options(campaign_parser, store=True)
    campaign_parser.add_argument(
        "--retries", type=int, default=0, metavar="R",
        help="retry budget per failing job (default 0)",
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines",
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a sharded, resumable grid sweep through the store",
        description=(
            "Evaluate one importable 'pkg.module:function' batch target "
            "over a parameter grid as a sharded campaign: content-hash-"
            "keyed shard jobs fan out over worker processes and store "
            "their points as columns, a streaming merge folds them into "
            "a per-metric summary, and interrupted sweeps resume from "
            "per-shard cache."
        ),
    )
    sweep_parser.add_argument(
        "target", metavar="TARGET",
        help="importable 'pkg.module:function' batch sweep target",
    )
    sweep_parser.add_argument(
        "--parameter", required=True, metavar="NAME",
        help="name of the swept keyword argument",
    )
    sweep_parser.add_argument(
        "--values", default=None, metavar="V1,V2,...",
        help="explicit comma-separated grid values",
    )
    sweep_parser.add_argument(
        "--min", type=float, default=None, dest="grid_min",
        help="grid start (with --max/--points)",
    )
    sweep_parser.add_argument(
        "--max", type=float, default=None, dest="grid_max",
        help="grid end (with --min/--points)",
    )
    sweep_parser.add_argument(
        "--points", type=int, default=None, metavar="N",
        help="grid size for --min/--max (default 101)",
    )
    sweep_parser.add_argument(
        "--linear", action="store_true",
        help="space the --min/--max grid linearly (default: log)",
    )
    sweep_parser.add_argument(
        "--shards", type=int, default=8, metavar="N",
        help="contiguous grid shards, one cached job each (default 8)",
    )
    _add_run_options(sweep_parser, store=True, store_required=True)
    sweep_parser.add_argument(
        "--name", default="sweep", metavar="NAME",
        help="campaign name prefix for the shard/merge jobs",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines",
    )

    store_parser = subparsers.add_parser(
        "store",
        help="inspect and maintain campaign result stores",
        description=(
            "Maintenance for persistent result stores: show what a "
            "store holds, compact superseded history, or migrate "
            "between the JSONL and SQLite backends."
        ),
    )
    store_sub = store_parser.add_subparsers(dest="store_command",
                                            required=True)

    info_parser = store_sub.add_parser(
        "info", help="summarise a store's backend, records, and versions"
    )
    info_parser.add_argument("path", metavar="STORE")
    info_parser.add_argument(
        "--backend", choices=("jsonl", "sqlite"), default=None,
        help="force the backend instead of auto-detecting",
    )
    info_parser.add_argument(
        "--timings", action="store_true",
        help="also report backend call latencies for the info scan",
    )

    compact_parser = store_sub.add_parser(
        "compact",
        help="drop superseded records (keep latest per key)",
        description=(
            "Rewrite the store keeping, per content key, the latest "
            "record plus the latest 'ok' record.  Cache lookups answer "
            "identically before and after; superseded history is gone."
        ),
    )
    compact_parser.add_argument("path", metavar="STORE")
    compact_parser.add_argument(
        "--backend", choices=("jsonl", "sqlite"), default=None,
        help="force the backend instead of auto-detecting",
    )

    verify_parser = store_sub.add_parser(
        "verify",
        help="integrity-scan a store's checksums (exit 1 on damage)",
        description=(
            "Read-only full-history checksum pass.  Reports verified, "
            "corrupt (failing or lacking a checksum, per payload kind), "
            "and unreadable record counts.  Damaged records stay "
            "quarantined in place — re-running the campaign recomputes "
            "them.  Exits 1 when any damage is found."
        ),
    )
    verify_parser.add_argument("path", metavar="STORE")
    verify_parser.add_argument(
        "--backend", choices=("jsonl", "sqlite"), default=None,
        help="force the backend instead of auto-detecting",
    )

    migrate_parser = store_sub.add_parser(
        "migrate",
        help=(
            "copy a store into a fresh store (e.g. JSONL -> SQLite), "
            "converting what older builds wrote"
        ),
        description=(
            "Copy every verified record, in order and with its "
            "provenance stamps, into a new store.  This is the one "
            "reader of older record forms: per-point shard payloads "
            "are rewritten as columnar ones under the same keys, and "
            "records nothing serves (point and columnar-block records, "
            "ragged payloads, records failing or lacking a checksum) "
            "are set aside and counted per payload kind.  The "
            "destination backend follows its extension, defaulting to "
            "the other backend, so 'repro store migrate r.jsonl "
            "r.sqlite' converts to SQLite."
        ),
    )
    migrate_parser.add_argument("source", metavar="SRC")
    migrate_parser.add_argument("destination", metavar="DST")
    migrate_parser.add_argument(
        "--src-backend", choices=("jsonl", "sqlite"), default=None,
        help="force the source backend instead of auto-detecting",
    )
    migrate_parser.add_argument(
        "--dst-backend", choices=("jsonl", "sqlite"), default=None,
        help="force the destination backend",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="export recorded telemetry as a Chrome trace",
        description=(
            "Work with the Chrome trace-event form of a run's "
            "telemetry.  Load the exported file in chrome://tracing or "
            "https://ui.perfetto.dev to see job, shard, merge, and "
            "store-flush spans on per-worker timelines."
        ),
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a telemetry sidecar into chrome://tracing JSON",
        description=(
            "Convert the JSONL telemetry sidecar written by "
            "--telemetry (or $REPRO_TELEMETRY) into Chrome trace-event "
            "JSON — spans become duration events on one lane per "
            "worker pid, bus events become instants."
        ),
    )
    trace_export.add_argument(
        "run", metavar="SIDECAR",
        help="telemetry sidecar written by --telemetry",
    )
    trace_export.add_argument(
        "--output", metavar="FILE", default=None,
        help="trace file to write (default: SIDECAR + '.trace.json')",
    )

    telemetry_parser = subparsers.add_parser(
        "telemetry",
        help="summarise a run's recorded telemetry",
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    telemetry_summary = telemetry_sub.add_parser(
        "summary",
        help="print the per-phase rollup of a telemetry sidecar",
        description=(
            "Read a JSONL telemetry sidecar and print its rollup: "
            "event counts, span timings by phase, and the merged "
            "cross-worker counter/gauge/histogram snapshot."
        ),
    )
    telemetry_summary.add_argument(
        "run", metavar="SIDECAR",
        help="telemetry sidecar written by --telemetry",
    )

    dim_parser = subparsers.add_parser(
        "dimension", help="answer a §IV.C design question"
    )
    dim_parser.add_argument(
        "--rate", type=float, required=True, help="streaming rate in kbps"
    )
    dim_parser.add_argument(
        "--energy", type=float, default=0.80,
        help="energy-saving goal as a fraction (default 0.80)",
    )
    dim_parser.add_argument(
        "--capacity", type=float, default=0.88,
        help="capacity-utilisation goal as a fraction (default 0.88)",
    )
    dim_parser.add_argument(
        "--lifetime", type=float, default=7.0,
        help="lifetime goal in years (default 7)",
    )
    dim_parser.add_argument(
        "--springs", type=float, default=1e8,
        help="springs duty-cycle rating (default 1e8)",
    )
    dim_parser.add_argument(
        "--probe-cycles", type=float, default=100.0,
        help="probe write-cycle rating (default 100)",
    )

    plot_parser = subparsers.add_parser(
        "plot", help="ASCII-plot a Figure 3 style design-space panel"
    )
    plot_parser.add_argument(
        "--energy", type=float, default=0.80,
        help="energy-saving goal as a fraction (default 0.80)",
    )
    plot_parser.add_argument(
        "--capacity", type=float, default=0.88,
        help="capacity-utilisation goal as a fraction (default 0.88)",
    )
    plot_parser.add_argument(
        "--lifetime", type=float, default=7.0,
        help="lifetime goal in years (default 7)",
    )
    plot_parser.add_argument(
        "--springs", type=float, default=1e8,
        help="springs duty-cycle rating (default 1e8)",
    )
    plot_parser.add_argument(
        "--probe-cycles", type=float, default=100.0,
        help="probe write-cycle rating (default 100)",
    )
    plot_parser.add_argument(
        "--width", type=int, default=72, help="chart width in characters"
    )
    plot_parser.add_argument(
        "--height", type=int, default=22, help="chart height in characters"
    )

    sim_parser = subparsers.add_parser(
        "simulate", help="run the DES streaming pipeline"
    )
    sim_parser.add_argument(
        "--rate", type=float, required=True, help="streaming rate in kbps"
    )
    sim_parser.add_argument(
        "--buffer-kb", type=float, required=True, help="buffer size in kB"
    )
    sim_parser.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated seconds (default 60)",
    )
    sim_parser.add_argument(
        "--always-on", action="store_true",
        help="simulate the always-on reference instead of shutdown policy",
    )
    return parser


def _command_list() -> int:
    from .experiments import list_experiments

    experiments = list_experiments()
    width = max(len(name) for name, _ in experiments)
    for name, description in experiments:
        print(f"{name:{width}s}  {description}")
    return 0


def _expand_experiment_ids(experiment_ids: Sequence[str]) -> list[str]:
    """Expand ``all`` and reject unknown ids before anything runs."""
    from .experiments import list_experiments, validate_experiment_ids

    ids = list(experiment_ids)
    if not ids or ids == ["all"]:
        return [name for name, _ in list_experiments()]
    validate_experiment_ids(ids)
    return ids


def _telemetry_capture(args: argparse.Namespace):
    """``(RunCapture, trace_path, sidecar_path)`` for a run command.

    ``--trace`` / ``--telemetry`` win; the ``REPRO_TRACE`` /
    ``REPRO_TELEMETRY`` environment variables fill in when the flags
    are absent.  Returns ``(None, None, None)`` when neither output is
    requested, so the commands skip the capture entirely.
    """
    from .telemetry import (
        TRACE_ENV_VAR,
        RunCapture,
        reset_telemetry,
        telemetry_sidecar_path,
    )

    trace = args.trace or os.environ.get(TRACE_ENV_VAR) or None
    sidecar = args.telemetry_file or telemetry_sidecar_path()
    if not trace and not sidecar:
        return None, None, None
    # Fresh registries so the artifacts describe this run only.
    reset_telemetry()
    return RunCapture(), trace, sidecar


def _export_capture(capture, trace, sidecar, meta) -> None:
    written = capture.export(trace=trace, sidecar=sidecar, meta=meta)
    for kind in sorted(written):
        print(f"(wrote {kind} {written[kind]})")


def _command_run(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .experiments import run_experiment, run_experiments

    jobs = args.jobs
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    ids = _expand_experiment_ids(args.experiments)
    capture, trace, sidecar = _telemetry_capture(args)
    if jobs > 1 or capture is not None or args.executor is not None:
        # Duplicate ids execute once but render every time they were
        # asked for, matching serial output exactly.  A telemetry
        # capture or explicit backend choice routes the serial case
        # through the queue too, so the run emits the same event
        # stream either way.
        results = run_experiments(
            list(dict.fromkeys(ids)),
            jobs=jobs,
            observers=[capture] if capture is not None else [],
            run_id=capture.run_id if capture is not None else "",
            executor=args.executor,
        )
        rendered = [results[experiment_id].render() for experiment_id in ids]
        for text in rendered:
            print(text)
    else:
        rendered = []
        for experiment_id in ids:
            result = run_experiment(experiment_id)
            text = result.render()
            print(text)
            rendered.append(text)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(rendered))
        print(f"(wrote {args.output})")
    if capture is not None:
        _export_capture(
            capture, trace, sidecar, {"command": "run", "jobs": jobs}
        )
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    from .runner import ProgressMonitor, registry_campaign, run_campaign

    ids = _expand_experiment_ids(args.experiments)
    campaign = registry_campaign(ids, retries=args.retries)
    monitor = (
        None if args.quiet else ProgressMonitor(stream=sys.stdout)
    )
    capture, trace, sidecar = _telemetry_capture(args)
    result = run_campaign(
        campaign,
        jobs=args.jobs,
        store_path=args.store,
        store_backend=args.store_backend,
        observers=[capture] if capture is not None else [],
        monitor=monitor,
        run_id=capture.run_id if capture is not None else "",
        executor=args.executor,
    )
    print()
    print(result.summary())
    if capture is not None:
        _export_capture(
            capture, trace, sidecar,
            {"command": "campaign", "jobs": args.jobs},
        )
    return 0 if result.ok else 1


def _sweep_grid(args: argparse.Namespace):
    """The sweep grid from either --values or --min/--max/--points.

    Explicit ``--values`` become a value list; ``--min/--max/--points``
    become a grid *descriptor*, so shard jobs ship four scalars instead
    of the whole grid and workers materialise their own slices.
    """
    import math

    from .errors import ConfigurationError
    from .runner import grid_descriptor

    if args.values is not None:
        try:
            grid = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as error:
            raise ConfigurationError(
                f"--values must be comma-separated numbers: {error}"
            ) from error
        if not grid:
            raise ConfigurationError("--values produced an empty grid")
        for value in grid:
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"--values must be finite, got {value!r}"
                )
        if args.linear or any(
            option is not None
            for option in (args.grid_min, args.grid_max, args.points)
        ):
            raise ConfigurationError(
                "pass either --values or --min/--max/--points/--linear, "
                "not both"
            )
        return grid
    if args.grid_min is None or args.grid_max is None:
        raise ConfigurationError(
            "pass --values or both --min and --max"
        )
    points = 101 if args.points is None else args.points
    if points < 2:
        raise ConfigurationError(f"--points must be >= 2, got {points}")
    if not args.linear and args.grid_min <= 0:
        raise ConfigurationError(
            "log-spaced grids need --min > 0 (or pass --linear)"
        )
    return grid_descriptor(
        "linspace" if args.linear else "geomspace",
        args.grid_min,
        args.grid_max,
        points,
    )


def _command_sweep(args: argparse.Namespace) -> int:
    from .runner import ProgressMonitor, run_sharded_sweep

    values = _sweep_grid(args)
    monitor = None if args.quiet else ProgressMonitor(stream=sys.stdout)
    capture, trace, sidecar = _telemetry_capture(args)
    result = run_sharded_sweep(
        args.name,
        args.target,
        args.parameter,
        values,
        store_path=args.store,
        shards=args.shards,
        jobs=args.jobs,
        store_backend=args.store_backend,
        monitor=monitor,
        strict=False,
        observers=[capture] if capture is not None else [],
        run_id=capture.run_id if capture is not None else "",
        executor=args.executor,
    )
    print()
    print(result.summary())
    merge = result.results.get(f"{args.name}/merge")
    if result.ok and merge is not None and isinstance(merge.value, dict):
        summary = merge.value
        print()
        print(
            f"{summary['points']} points over {summary['shards']} shards "
            f"-> {args.store}"
        )
        for name in sorted(summary.get("metrics", {})):
            stats = summary["metrics"][name]
            low = stats["min"]
            high = stats["max"]
            print(
                f"  {name}: {stats['finite']} finite"
                + (
                    f", min {low:g}, max {high:g}"
                    if low is not None and high is not None
                    else ""
                )
            )
    if capture is not None:
        _export_capture(
            capture, trace, sidecar,
            {
                "command": "sweep",
                "jobs": args.jobs,
                "shards": args.shards,
            },
        )
    return 0 if result.ok else 1


def _command_store(args: argparse.Namespace) -> int:
    from .runner.provenance import CONFIG_FIELD, VERSION_FIELD
    from .runner.store import ResultStore, migrate_store

    if args.store_command == "migrate":
        report = migrate_store(
            args.source,
            args.destination,
            src_backend=args.src_backend,
            dst_backend=args.dst_backend,
        )
        destination = ResultStore(args.destination)
        print(
            f"migrated {report.copied} records: {args.source} -> "
            f"{args.destination} ({destination.backend_name})"
        )
        destination.close()
        if report.converted:
            print(
                f"  converted shard-json: {report.converted} records "
                "to columnar-shard"
            )
        for counts, why in (
            (report.set_aside, "no reader"),
            (report.unverified, "checksum failed or missing"),
        ):
            for kind in sorted(counts):
                print(f"  set aside {kind}: {counts[kind]} records ({why})")
        return 0

    if not os.path.exists(args.path):
        from .errors import ConfigurationError

        raise ConfigurationError(f"store {args.path!r} does not exist")
    store = ResultStore(args.path, backend=args.backend)
    if args.store_command == "verify":
        from .runner.integrity import damage_total

        stats = store.verify()
        print(f"store     : {args.path}")
        print(f"backend   : {store.backend_name}")
        print(f"records   : {stats['records']}")
        print(f"verified  : {stats['checked']}")
        for kind in sorted(stats["corrupt"]):
            print(f"  corrupt {kind}: {stats['corrupt'][kind]} "
                  f"records quarantined")
        print(f"corrupt   : {stats['corrupt_total']}")
        print(f"unreadable: {stats['unreadable']}")
        store.close()
        if damage_total(stats) > 0:
            print("DAMAGED: store holds quarantined records; "
                  "re-run the campaign to recompute them")
            return 1
        print("ok: every checksummed record verified")
        return 0
    if args.store_command == "compact":
        before = len(store)
        dropped = store.compact()
        print(
            f"compacted {args.path} ({store.backend_name}): "
            f"{before} -> {before - dropped} records "
            f"({dropped} superseded dropped)"
        )
        store.close()
        return 0

    # info — one streaming pass over the store
    from .runner.codec import payload_kind
    from .telemetry import reset_telemetry, telemetry_enabled

    if args.timings:
        # Fresh registry so the latencies describe this scan only.
        reset_telemetry()
    total = 0
    total_bytes = 0
    ok_keys = set()
    versions: dict[str, int] = {}
    kinds: dict[str, tuple[int, int]] = {}
    for record, nbytes in store.iter_records_with_size():
        total += 1
        total_bytes += nbytes
        if record.get("status") == "ok":
            ok_keys.add(record["key"])
        kind = payload_kind(record)
        count, size = kinds.get(kind, (0, 0))
        kinds[kind] = (count + 1, size + nbytes)
        label = (
            f"{record.get(VERSION_FIELD, '?')}"
            f"/{record.get(CONFIG_FIELD, '?')}"
        )
        versions[label] = versions.get(label, 0) + 1
    print(f"store    : {args.path}")
    print(f"backend  : {store.backend_name}")
    print(f"records  : {total}")
    print(f"ok keys  : {len(ok_keys)}")
    print(f"bytes    : {total_bytes}")
    # Largest payload kinds first: the byte column is what you read
    # this report for.
    for kind, (count, size) in sorted(
        kinds.items(), key=lambda item: (-item[1][1], item[0])
    ):
        print(f"  payload {kind}: {count} records, {size} bytes")
    for label in sorted(versions):
        print(f"  provenance {label}: {versions[label]} records")
    if args.timings:
        _print_store_timings(store.backend_name, telemetry_enabled())
    store.close()
    return 0


def _print_store_timings(backend_name: str, enabled: bool) -> None:
    """Backend call latencies recorded during the info scan."""
    from .telemetry import metrics

    print("timings  :")
    if not enabled:
        print("  (telemetry disabled via REPRO_TELEMETRY)")
        return
    histograms = metrics().snapshot()["histograms"]
    prefix = f"store.{backend_name}."
    shown = False
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        hist = histograms[name]
        count = int(hist["count"])
        total = float(hist["total"])
        mean = total / count if count else 0.0
        print(
            f"  {name}: {count} calls, total {total * 1e3:.2f}ms, "
            f"mean {mean * 1e3:.3f}ms"
        )
        shown = True
    if not shown:
        print("  (no backend calls recorded)")


def _read_sidecar_checked(path: str) -> dict:
    """A parsed telemetry sidecar, or a :class:`ReproError` to report."""
    from .errors import ConfigurationError
    from .telemetry import read_sidecar

    try:
        return read_sidecar(path)
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot read telemetry sidecar {path!r}: {error}"
        ) from error


def _command_trace(args: argparse.Namespace) -> int:
    from .telemetry import write_chrome_trace

    data = _read_sidecar_checked(args.run)
    output = args.output or args.run + ".trace.json"
    meta = data["meta"]
    write_chrome_trace(
        output,
        data["spans"],
        data["events"],
        parent_pid=meta.get("parent_pid"),
        metadata=meta,
    )
    print(
        f"(wrote trace {output}: {len(data['spans'])} spans, "
        f"{len(data['events'])} events)"
    )
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import summarize

    print(summarize(_read_sidecar_checked(args.run)))
    return 0


def _command_dimension(args: argparse.Namespace) -> int:
    from . import units
    from .config import DesignGoal, ibm_mems_prototype, table1_workload
    from .core.dimensioning import BufferDimensioner

    device = ibm_mems_prototype(
        springs_duty_cycles=args.springs,
        probe_write_cycles=args.probe_cycles,
    )
    workload = table1_workload()
    goal = DesignGoal(
        energy_saving=args.energy,
        capacity_utilisation=args.capacity,
        lifetime_years=args.lifetime,
    )
    dimensioner = BufferDimensioner(device, workload)
    requirement = dimensioner.dimension(goal, args.rate * 1000.0)
    print(requirement.summary())
    for outcome in requirement.outcomes:
        size = (
            units.format_size(outcome.min_buffer_bits)
            if outcome.feasible
            else "infeasible"
        )
        print(f"  {outcome.constraint.value:4s} needs >= {size}")
    return 0 if requirement.feasible else 1


def _command_plot(args: argparse.Namespace) -> int:
    from .analysis.plots import plot_design_space
    from .config import DesignGoal, ibm_mems_prototype, table1_workload
    from .core.design_space import DesignSpaceExplorer

    device = ibm_mems_prototype(
        springs_duty_cycles=args.springs,
        probe_write_cycles=args.probe_cycles,
    )
    workload = table1_workload()
    goal = DesignGoal(
        energy_saving=args.energy,
        capacity_utilisation=args.capacity,
        lifetime_years=args.lifetime,
    )
    explorer = DesignSpaceExplorer(device, workload, points_per_decade=24)
    result = explorer.sweep(goal)
    print(plot_design_space(result, width=args.width, height=args.height))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from . import units
    from .config import ibm_mems_prototype, table1_workload
    from .streaming.pipeline import simulate_always_on, simulate_streaming
    from .streaming.stats import compare_with_model

    device = ibm_mems_prototype()
    workload = table1_workload()
    rate = args.rate * 1000.0
    buffer_bits = units.kb_to_bits(args.buffer_kb)
    if args.always_on:
        report = simulate_always_on(
            device, buffer_bits, rate, args.duration, workload
        )
        print(report.summary())
        return 0
    report = simulate_streaming(
        device, buffer_bits, rate, args.duration, workload
    )
    print(report.summary())
    comparison = compare_with_model(report, device, workload, rate)
    print(
        f"model agreement   : energy {comparison.energy_error:.2%}, "
        f"cycles {comparison.cycle_error:.2%}"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _command_list()
        if args.command == "run":
            return _command_run(args)
        if args.command == "campaign":
            return _command_campaign(args)
        if args.command == "sweep":
            return _command_sweep(args)
        if args.command == "store":
            return _command_store(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "telemetry":
            return _command_telemetry(args)
        if args.command == "dimension":
            return _command_dimension(args)
        if args.command == "plot":
            return _command_plot(args)
        if args.command == "simulate":
            return _command_simulate(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Piping long output (telemetry summary, store info) into a
        # pager that exits early is normal, not a crash.  Redirect
        # stdout to devnull so the interpreter's shutdown flush does
        # not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

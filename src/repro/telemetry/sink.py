"""JSONL telemetry sidecar: one file per run, replayable offline.

The sidecar is the durable form of a run's telemetry — the thing
``repro trace export`` and ``repro telemetry summary`` read back.  It
is line-delimited JSON, one tagged object per line:

* line 1 is the header: ``{"t": "meta", "schema": "repro.telemetry/1",
  "run_id": ..., ...}``,
* ``{"t": "event", ...}`` — one bus event (see
  :mod:`repro.runner.events`),
* ``{"t": "span", ...}`` — one closed span (see
  :mod:`repro.telemetry.spans`),
* ``{"t": "metrics", "snapshot": {...}}`` — the final merged metrics
  registry snapshot (last one wins on read).

Appending plain lines keeps writes cheap and crash losses bounded to
the final line; unknown tags are skipped on read so the schema can
grow without breaking old readers.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping, Sequence

#: Sidecar schema identifier written into the header line.
SIDECAR_SCHEMA = "repro.telemetry/1"


def write_sidecar(
    path: str,
    *,
    run_id: str,
    events: Iterable[Mapping[str, Any]] = (),
    spans: Sequence[Mapping[str, Any]] = (),
    metrics_snapshot: Mapping[str, Any] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> int:
    """Write a full sidecar file; returns the number of lines written."""
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        header: dict[str, Any] = {
            "t": "meta",
            "schema": SIDECAR_SCHEMA,
            "run_id": run_id,
        }
        if meta:
            header.update(meta)
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        lines += 1
        for event in events:
            record = {"t": "event", **event}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            lines += 1
        for span_dict in spans:
            record = {"t": "span", **span_dict}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            lines += 1
        if metrics_snapshot is not None:
            record = {"t": "metrics", "snapshot": dict(metrics_snapshot)}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            lines += 1
    return lines


def read_sidecar(path: str) -> dict[str, Any]:
    """Parse a sidecar back into ``{meta, events, spans, metrics}``.

    Unknown tags are skipped; a missing metrics line yields an empty
    snapshot.  Raises :class:`ValueError` when the header is missing
    or declares a schema this reader does not speak.
    """
    meta: dict[str, Any] = {}
    events: list[dict[str, Any]] = []
    spans: list[dict[str, Any]] = []
    snapshot: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            tag = record.get("t")
            if lineno == 1:
                if tag != "meta":
                    raise ValueError(
                        f"{path}: first line must be the meta header"
                    )
                schema = record.get("schema")
                if schema != SIDECAR_SCHEMA:
                    raise ValueError(
                        f"{path}: unsupported sidecar schema {schema!r}"
                    )
                meta = {
                    key: value
                    for key, value in record.items()
                    if key != "t"
                }
            elif tag == "event":
                events.append(
                    {k: v for k, v in record.items() if k != "t"}
                )
            elif tag == "span":
                spans.append(
                    {k: v for k, v in record.items() if k != "t"}
                )
            elif tag == "metrics":
                snapshot = dict(record.get("snapshot", {}))
    if not meta:
        raise ValueError(f"{path}: empty sidecar (no meta header)")
    return {
        "meta": meta,
        "events": events,
        "spans": spans,
        "metrics": snapshot,
    }


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1e3:.2f}ms"


def summarize(data: Mapping[str, Any]) -> str:
    """Human-readable per-phase rollup for ``repro telemetry summary``."""
    meta = data.get("meta", {})
    events = data.get("events", [])
    spans = data.get("spans", [])
    snapshot = data.get("metrics", {})
    lines: list[str] = []
    run_id = meta.get("run_id", "?")
    lines.append(f"run {run_id}")
    workers = snapshot.get("workers", [])
    if workers:
        lines.append(
            f"workers: {len(workers)} "
            f"(pids {', '.join(str(pid) for pid in workers)})"
        )

    if events:
        kinds: dict[str, int] = {}
        for event in events:
            kind = str(event.get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
        rollup = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        lines.append(f"events: {len(events)} ({rollup})")

    if spans:
        by_name: dict[str, tuple[int, float]] = {}
        for span_dict in spans:
            name = str(span_dict.get("name", "?"))
            count, total = by_name.get(name, (0, 0.0))
            by_name[name] = (
                count + 1,
                total + float(span_dict.get("dur", 0.0)),
            )
        lines.append("spans:")
        for name, (count, total) in sorted(
            by_name.items(), key=lambda item: -item[1][1]
        ):
            lines.append(
                f"  {name}: {count} x, total {_fmt_seconds(total)}, "
                f"mean {_fmt_seconds(total / count)}"
            )

    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            value = counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name}: {shown}")

    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges (max across workers):")
        for name in sorted(gauges):
            value = gauges[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"  {name}: {shown}")

    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("timings:")
        for name in sorted(histograms):
            hist = histograms[name]
            count = int(hist.get("count", 0))
            total = float(hist.get("total", 0.0))
            mean = total / count if count else 0.0
            lines.append(
                f"  {name}: {count} x, total {_fmt_seconds(total)}, "
                f"mean {_fmt_seconds(mean)}, "
                f"min {_fmt_seconds(hist.get('min'))}, "
                f"max {_fmt_seconds(hist.get('max'))}"
            )

    if len(lines) == 1:
        lines.append("no telemetry recorded")
    return "\n".join(lines)

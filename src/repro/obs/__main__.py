"""CLI: summarize trace logs / flight dumps, or diff two metrics files.

::

    python -m repro.obs events.jsonl            # phase + I/O tables
    python -m repro.obs events.jsonl --json     # aggregates as JSON
    python -m repro.obs flight_*.json           # flight-recorder postmortem
    python -m repro.obs diff base.json cur.json # tolerance-gated metric diff

The summarize form accepts either the JSONL file a
:class:`repro.obs.JsonlSink` wrote during a traced run (span durations
grouped by name into count / total / mean / p50 / p95 / p99 columns, I/O
grouped by kind and site) or a flight-recorder postmortem dump (reason,
provenance, and the buffered event tail). ``diff`` is documented in
:mod:`repro.obs.diff`; its exit code is the CI perf gate.
"""

from __future__ import annotations

import argparse
import json
import sys

from .sinks import SnapshotSink, load_jsonl, replay
from .trace import IOEvent, SpanEvent


def summarize(events):
    """Aggregate events; returns ``(snapshot_sink, wall_s)``.

    ``wall_s`` is the total duration of root spans (spans with no
    parent) — the traced run's accounted wall time.
    """
    sink, = replay(events, SnapshotSink())
    wall = sum(e.duration_s for e in events
               if isinstance(e, SpanEvent) and e.parent_id is None)
    return sink, wall


def _phase_rows(sink, wall):
    registry = sink.registry
    rows = []
    for name, total in sorted(sink.phase_totals().items(),
                              key=lambda kv: -kv[1]):
        hist = registry.histogram(f"span.{name}.seconds")
        share = f"{100.0 * total / wall:.1f}%" if wall > 0 else "-"
        rows.append([
            name, hist.count, f"{total:.6f}", share,
            f"{hist.mean * 1e3:.3f}",
            f"{hist.percentile(0.50) * 1e3:.3f}",
            f"{hist.percentile(0.95) * 1e3:.3f}",
            f"{hist.percentile(0.99) * 1e3:.3f}",
        ])
    return rows


def _io_rows(events):
    totals = {}
    for e in events:
        if isinstance(e, IOEvent):
            key = (e.kind, e.site)
            totals[key] = totals.get(key, 0) + e.pages
    return [[kind, site, pages]
            for (kind, site), pages in sorted(totals.items())]


def _load_flight_dump(path):
    """The parsed flight-recorder dump at ``path``, or ``None``.

    A dump is a single JSON object (as opposed to a JSONL stream) whose
    ``format`` tag or ``events`` list identifies it.
    """
    with open(path) as fh:
        text = fh.read()
    if not text.lstrip().startswith("{"):
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    if str(payload.get("format", "")).startswith("repro-flight") \
            or isinstance(payload.get("events"), list):
        return payload
    return None


def _summarize_flight(payload, as_json):
    """Render a flight-recorder postmortem; returns an exit code."""
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    from ..eval.reporting import Table

    prov = payload.get("provenance") or {}
    events = payload.get("events") or []
    header = (f"Flight recorder postmortem — reason: "
              f"{payload.get('reason', '?')}, pid {payload.get('pid', '?')}"
              f", git {str(prov.get('git_sha'))[:12]}")
    print(header)
    extra = payload.get("extra") or {}
    if extra:
        print("trigger: " + json.dumps(extra, sort_keys=True))
    table = Table(["seq", "age_s", "kind", "fields"],
                  title=f"Last {len(events)} events (oldest first)")
    dumped_at = payload.get("unix_time")
    for ev in events:
        ev = dict(ev)
        seq = ev.pop("seq", "-")
        t = ev.pop("t", None)
        kind = ev.pop("kind", "?")
        age = (f"{dumped_at - t:.3f}"
               if dumped_at is not None and t is not None else "-")
        fields = " ".join(f"{k}={v}" for k, v in sorted(ev.items()))
        table.add(seq, age, kind, fields)
    table.print()
    return 0


def main(argv=None):
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "diff":
        from .diff import main as diff_main

        return diff_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize a traced query's JSONL event log or a "
                    "flight-recorder dump (see also the 'diff' "
                    "subcommand).",
    )
    parser.add_argument("events", help="path to a JsonlSink event log "
                                       "or a flight-recorder dump")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregate snapshot as JSON")
    args = parser.parse_args(argv)

    dump = _load_flight_dump(args.events)
    if dump is not None:
        return _summarize_flight(dump, args.json)

    events = load_jsonl(args.events)
    sink, wall = summarize(events)

    if args.json:
        snapshot = sink.snapshot()
        snapshot["accounted_wall_s"] = wall
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0

    from ..eval.reporting import Table

    table = Table(
        ["phase", "spans", "total_s", "share", "mean_ms", "p50_ms",
         "p95_ms", "p99_ms"],
        title=f"Phase breakdown ({len(events)} events, "
              f"root wall {wall:.6f}s)",
    )
    for row in _phase_rows(sink, wall):
        table.add(*row)
    table.print()

    io_rows = _io_rows(events)
    if io_rows:
        io_table = Table(["kind", "site", "pages"], title="Page I/O")
        for row in io_rows:
            io_table.add(*row)
        print()
        io_table.print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

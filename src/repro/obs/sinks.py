"""Pluggable destinations for trace events, plus reload/exposition helpers.

Three ways out of a :class:`~repro.obs.trace.Trace`:

* :class:`SnapshotSink` — in-process aggregation into a
  :class:`~repro.obs.registry.MetricsRegistry` (per-phase counts, total
  seconds, latency histograms, I/O totals by site);
* :class:`JsonlSink` — one JSON object per event, append-only, reloadable
  with :func:`load_jsonl` and re-aggregatable with :func:`replay` (the
  round trip is exact: replayed aggregates equal the live snapshot);
* :func:`render_prometheus` — Prometheus text exposition of any registry,
  for scraping or diffing.
"""

from __future__ import annotations

import json
import re

from .registry import MetricsRegistry
from .trace import IOEvent, SpanEvent

__all__ = ["SnapshotSink", "JsonlSink", "load_jsonl", "replay",
           "render_prometheus", "render_info"]


def _jsonable(value):
    """Best-effort conversion of attribute values to JSON-safe types."""
    item = getattr(value, "item", None)
    if item is not None:  # numpy scalars
        return item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class SnapshotSink:
    """Aggregates events into a metrics registry as they arrive.

    Per span name ``X`` it maintains ``span.X.count``, ``span.X.total_s``
    and the latency histogram ``span.X.seconds``; per I/O kind and site it
    maintains ``io.<kind>.pages`` and ``io.<kind>.<site>.pages``. The
    :meth:`snapshot` dict is what the eval harness writes next to each
    results CSV.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else \
            MetricsRegistry()

    def on_span(self, event):
        """Fold one closed span into the per-phase aggregates."""
        name = event.name
        self.registry.counter(f"span.{name}.count").inc()
        self.registry.gauge(f"span.{name}.total_s").inc(event.duration_s)
        self.registry.histogram(f"span.{name}.seconds").observe(
            event.duration_s)

    def on_io(self, event):
        """Fold one I/O charge into the per-kind / per-site totals."""
        self.registry.counter(f"io.{event.kind}.pages").inc(event.pages)
        self.registry.counter(
            f"io.{event.kind}.{event.site}.pages").inc(event.pages)

    def snapshot(self):
        """The registry's JSON-serializable snapshot."""
        return self.registry.snapshot()

    def reset(self):
        """Zero every aggregate.

        The sweep harness calls this between experiments so counters and
        histograms never bleed across ``{stem}_metrics.json`` files.
        """
        self.registry.reset()

    def phase_totals(self):
        """``{span name: total seconds}`` across everything observed."""
        return {
            name[len("span."):-len(".total_s")]: metric.value
            for name, metric in self.registry
            if name.startswith("span.") and name.endswith(".total_s")
        }


class JsonlSink:
    """Writes every event as one JSON line to a path or file object.

    Span lines carry ``type/name/start_s/duration_s/span_id/parent_id/
    attrs``; I/O lines carry ``type/kind/pages/site/span_id``. The file is
    closed by ``finish()`` (called automatically when the enclosing
    :class:`~repro.obs.trace.tracing` block exits) only if this sink
    opened it.
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns = True

    def _write(self, record):
        self._fh.write(json.dumps(record) + "\n")

    def on_span(self, event):
        """Append one span line."""
        self._write({
            "type": "span",
            "name": event.name,
            "start_s": event.start_s,
            "duration_s": event.duration_s,
            "span_id": event.span_id,
            "parent_id": event.parent_id,
            "attrs": {k: _jsonable(v) for k, v in event.attrs.items()},
        })

    def on_io(self, event):
        """Append one I/O line."""
        self._write({
            "type": "io",
            "kind": event.kind,
            "pages": event.pages,
            "site": event.site,
            "span_id": event.span_id,
        })

    def finish(self):
        """Flush, and close the file if this sink opened it."""
        self._fh.flush()
        if self._owns:
            self._fh.close()


def load_jsonl(path_or_file):
    """Reload a :class:`JsonlSink` log into event objects, in file order."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file) as fh:
            lines = fh.read().splitlines()
    events = []
    for line in lines:
        if not line.strip():
            continue
        record = json.loads(line)
        kind = record.pop("type")
        if kind == "span":
            events.append(SpanEvent(**record))
        elif kind == "io":
            events.append(IOEvent(**record))
        else:
            raise ValueError(f"unknown event type {kind!r}")
    return events


def replay(events, *sinks):
    """Feed reloaded events through sinks; returns the sinks.

    ``replay(load_jsonl(path), SnapshotSink())`` reproduces exactly the
    aggregates a live :class:`SnapshotSink` built during the traced run.
    """
    for event in events:
        for sink in sinks:
            if isinstance(event, IOEvent):
                sink.on_io(event)
            else:
                sink.on_span(event)
    return sinks


_PROM_NAME = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name, prefix):
    """A metric name sanitized to the Prometheus grammar."""
    return _PROM_NAME.sub("_", f"{prefix}_{name}")


def _prom_label_value(value):
    """A string escaped for use inside a Prometheus label value.

    The exposition format requires backslash, double-quote, and newline
    escapes; everything else passes through verbatim.
    """
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def render_info(name, labels, prefix="repro"):
    """An info-style metric: constant 1 with identity carried in labels.

    ``render_info("build_info", {"git_sha": sha})`` produces the
    conventional ``repro_build_info{git_sha="..."} 1`` sample used to
    join provenance onto every scraped series. Label *names* are
    sanitized to the metric grammar; label *values* are escaped, so
    hostnames or versions containing quotes, backslashes, or newlines
    stay parseable.
    """
    pname = _prom_name(name, prefix)

    def label_name(key):
        key = _PROM_NAME.sub("_", str(key))
        return key if key[:1].isalpha() or key[:1] == "_" else f"_{key}"

    body = ",".join(
        f'{label_name(key)}="{_prom_label_value(value)}"'
        for key, value in labels.items()
    )
    return (f"# TYPE {pname} gauge\n"
            f"{pname}{{{body}}} 1\n")


def render_prometheus(registry, prefix="repro"):
    """Prometheus text exposition (version 0.0.4) of a registry.

    Counters and gauges become single samples; histograms become the
    conventional ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
    Accepts a :class:`MetricsRegistry` or a :class:`SnapshotSink`.
    """
    if isinstance(registry, SnapshotSink):
        registry = registry.registry
    from .registry import Counter, Gauge, Histogram

    lines = []
    for name, metric in registry:
        pname = _prom_name(name, prefix)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {metric.value}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {pname} histogram")
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.counts):
                cumulative += count
                lines.append(
                    f'{pname}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(
                f'{pname}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{pname}_sum {metric.sum}")
            lines.append(f"{pname}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")

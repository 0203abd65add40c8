"""Telemetry subsystem: registry, span tracing, sinks, and the CLI.

Three layers of coverage:

* unit — counters/gauges/histograms, span nesting and the disabled-path
  no-ops;
* integration — traced C2LSH queries must account for the wall time they
  spend, and the I/O totals in the event stream must agree *exactly* with
  the ``QueryStats`` the engine returns;
* round-trip — a JSONL event log reloaded and replayed must reproduce the
  live snapshot bit-for-bit, the Prometheus exposition must parse line by
  line, and ``python -m repro.obs`` must summarize a real log.
"""

import json
import re
import time

import pytest

from repro import C2LSH, PageManager
from repro.eval import harness
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    IOEvent,
    JsonlSink,
    MetricsRegistry,
    SnapshotSink,
    SpanEvent,
    load_jsonl,
    render_prometheus,
    replay,
    trace,
    tracing,
)
from repro.obs.__main__ import main as obs_main


@pytest.fixture()
def fitted(tiny):
    """A fitted paged index (so queries charge real I/O) plus queries."""
    data, queries = tiny
    index = C2LSH(seed=0, page_manager=PageManager()).fit(data)
    return index, queries


class TestRegistry:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("hits") is counter  # get-or-create

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("bad").inc(-1)

    def test_gauge(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        assert gauge.value == 7.0

    def test_histogram_percentiles(self):
        hist = Histogram("latency")
        values = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for v in values:
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(sum(values))
        assert snap["min"] == pytest.approx(0.001)
        assert snap["max"] == pytest.approx(0.100)
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] \
            <= snap["max"]

    def test_histogram_empty(self):
        snap = Histogram("empty").snapshot()
        assert snap["count"] == 0

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_iteration_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(2.5)
        registry.histogram("c").observe(0.1)
        assert len(registry) == 3
        assert {name for name, _ in registry} == {"a", "b", "c"}
        snap = registry.snapshot()
        assert snap["a"] == 1
        assert snap["b"] == 2.5
        assert snap["c"]["count"] == 1


class TestTrace:
    def test_disabled_path_is_noop(self):
        assert not trace.active()
        sp = trace.span("anything", radius=4)
        assert sp is trace.NULL_SPAN
        assert sp.set(more=1) is sp
        with sp:
            pass
        # Point and I/O events silently vanish when no trace is active.
        trace.event("query_stats", io_reads=3)
        trace.io_event("read", 7, "bucket_scan")

    def test_nesting_parent_ids(self):
        with tracing() as tr:
            with trace.span("outer") as outer:
                with trace.span("inner", radius=2) as inner:
                    inner.set(scanned=9)
        events = {e.name: e for e in tr.events}
        assert events["inner"].parent_id == outer.span_id
        assert events["outer"].parent_id is None
        assert events["inner"].attrs == {"radius": 2, "scanned": 9}
        # Children close (and are emitted) before their parents.
        assert tr.events[0].name == "inner"

    def test_point_event_and_io_attribution(self):
        with tracing() as tr:
            with trace.span("round") as sp:
                trace.io_event("read", 3, "bucket_scan")
                trace.event("marker", value=1)
        io = [e for e in tr.events if isinstance(e, IOEvent)]
        assert io == [IOEvent(kind="read", pages=3, site="bucket_scan",
                              span_id=sp.span_id)]
        marker = next(e for e in tr.events
                      if isinstance(e, SpanEvent) and e.name == "marker")
        assert marker.duration_s == 0.0
        assert marker.parent_id == sp.span_id

    def test_nested_tracing_shadows_and_restores(self):
        with tracing() as outer:
            with tracing() as inner:
                with trace.span("work"):
                    pass
            assert trace.current() is outer
        assert not trace.active()
        assert [e.name for e in inner.events] == ["work"]
        assert outer.events == []

    def test_keep_events_false(self):
        sink = SnapshotSink()
        with tracing(sink, keep_events=False) as tr:
            with trace.span("work"):
                pass
        assert tr.events == []
        assert sink.registry.counter("span.work.count").value == 1


class TestQueryIntegration:
    def test_span_tree_accounts_for_wall_time(self, fitted):
        """Root spans must cover >= 90% of the traced query's wall time."""
        index, queries = fitted
        index.query(queries[0], k=5)  # warm lazy state
        with tracing() as tr:
            t0 = time.perf_counter()
            index.query(queries[0], k=5)
            wall = time.perf_counter() - t0
        accounted = sum(e.duration_s for e in tr.events
                        if isinstance(e, SpanEvent) and e.parent_id is None
                        and e.duration_s > 0.0)
        assert accounted >= 0.9 * wall

    def test_sequential_io_parity(self, fitted):
        """The query span and the I/O event stream both match QueryStats."""
        index, queries = fitted
        for q in queries:
            with tracing() as tr:
                result = index.query(q, k=5)
            qspan = next(e for e in tr.events
                         if isinstance(e, SpanEvent) and e.name == "query")
            assert qspan.attrs["io_reads"] == result.stats.io_reads
            assert qspan.attrs["rounds"] == result.stats.rounds
            assert qspan.attrs["terminated_by"] == \
                result.stats.terminated_by
            read_pages = sum(e.pages for e in tr.events
                             if isinstance(e, IOEvent) and e.kind == "read")
            assert read_pages == result.stats.io_reads

    def test_batch_jsonl_io_parity(self, fitted, tmp_path):
        """Per-query ``io_reads`` in the JSONL log == QueryStats, exactly."""
        index, queries = fitted
        path = tmp_path / "events.jsonl"
        with tracing(JsonlSink(path)):
            results = index.query_batch(queries, k=5)
        events = {e.attrs["query"]: e.attrs
                  for e in load_jsonl(path)
                  if isinstance(e, SpanEvent) and e.name == "query_stats"}
        assert sorted(events) == list(range(len(queries)))
        for q, attrs in events.items():
            stats = results[q].stats
            assert attrs["io_reads"] == stats.io_reads
            assert attrs["io_writes"] == stats.io_writes
            assert attrs["rounds"] == stats.rounds
            assert attrs["final_radius"] == stats.final_radius
            assert attrs["candidates"] == stats.candidates
            assert attrs["scanned_entries"] == stats.scanned_entries
            assert attrs["terminated_by"] == stats.terminated_by
            assert attrs["elapsed_s"] == stats.elapsed_s

    def test_batch_emits_round_spans(self, fitted):
        index, queries = fitted
        with tracing() as tr:
            index.query_batch(queries, k=5)
        names = [e.name for e in tr.events if isinstance(e, SpanEvent)]
        assert "batch_block" in names
        assert "round" in names
        assert "count_round" in names
        assert "verify" in names


class TestSinks:
    def test_jsonl_round_trip_equals_live_snapshot(self, fitted, tmp_path):
        index, queries = fitted
        path = tmp_path / "events.jsonl"
        live = SnapshotSink()
        with tracing(live, JsonlSink(path)):
            index.query_batch(queries, k=5)
            index.query(queries[0], k=5)
        replayed, = replay(load_jsonl(path), SnapshotSink())
        assert replayed.phase_totals() == live.phase_totals()
        assert replayed.snapshot() == live.snapshot()

    def test_jsonl_sink_does_not_close_callers_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            with tracing(JsonlSink(fh)):
                with trace.span("work"):
                    pass
            assert not fh.closed  # tracing() finished the sink
        assert [e.name for e in load_jsonl(path)] == ["work"]

    def test_snapshot_sink_phase_totals(self):
        sink = SnapshotSink()
        with tracing(sink):
            with trace.span("hash"):
                pass
            with trace.span("hash"):
                pass
        totals = sink.phase_totals()
        assert set(totals) == {"hash"}
        assert totals["hash"] >= 0.0
        assert sink.registry.counter("span.hash.count").value == 2

    def test_prometheus_parses_line_by_line(self, fitted):
        index, queries = fitted
        sink = SnapshotSink()
        with tracing(sink):
            index.query(queries[0], k=5)
        text = render_prometheus(sink)
        assert text.endswith("\n")
        name_re = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert name_re.fullmatch(name)
                assert kind in {"counter", "gauge", "histogram"}
            else:
                metric, value = line.rsplit(" ", 1)
                float(value)  # every sample value must be numeric
                assert name_re.fullmatch(metric.split("{", 1)[0])
        assert "repro_span_query_count 1" in text
        assert "repro_io_read_bucket_scan_pages" in text

    def test_prometheus_histogram_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for v in (0.001, 0.01, 0.1):
            hist.observe(v)
        text = render_prometheus(registry)
        buckets = re.findall(r'repro_lat_bucket\{le="[^"]+"\} (\d+)', text)
        counts = [int(b) for b in buckets]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 3
        assert "repro_lat_count 3" in text


class TestCli:
    @pytest.fixture()
    def event_log(self, fitted, tmp_path):
        index, queries = fitted
        path = tmp_path / "events.jsonl"
        with tracing(JsonlSink(path)):
            index.query(queries[0], k=5)
        return path

    def test_table_output(self, event_log, capsys):
        assert obs_main([str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "query" in out
        assert "Page I/O" in out
        assert "bucket_scan" in out

    def test_json_output(self, event_log, capsys):
        assert obs_main([str(event_log), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["accounted_wall_s"] > 0.0
        assert snapshot["span.query.count"] == 1
        assert any(key.startswith("io.read.") for key in snapshot)


class TestHarnessMetrics:
    def test_out_dir_gets_metrics_snapshot(self, tmp_path, capsys):
        assert harness.main(["table-params",
                             "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()  # swallow the experiment's table output
        path = tmp_path / "t1_params_metrics.json"
        assert path.exists()
        assert isinstance(json.loads(path.read_text()), dict)


class TestPercentileTinySamples:
    """Nearest-rank exactness at 0, 1, and 2 observations."""

    def test_empty_is_zero(self):
        hist = Histogram("lat")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.percentile(q) == 0.0

    def test_single_observation_is_returned_verbatim(self):
        hist = Histogram("lat")
        hist.observe(0.0421)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.percentile(q) == 0.0421
        snap = hist.snapshot()
        assert snap["p50"] == snap["p99"] == 0.0421

    def test_two_observations_nearest_rank(self):
        hist = Histogram("lat")
        hist.observe(0.010)
        hist.observe(0.020)
        assert hist.percentile(0.0) == 0.010
        assert hist.percentile(0.5) == 0.010
        assert hist.percentile(0.51) == 0.020
        assert hist.percentile(0.95) == 0.020
        assert hist.percentile(0.99) == 0.020

    def test_rejects_out_of_range_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            Histogram("lat").percentile(1.5)


class TestRegistryReset:
    def test_reset_zeroes_values_and_keeps_references(self):
        registry = MetricsRegistry()
        counter = registry.counter("work")
        gauge = registry.gauge("level")
        hist = registry.histogram("lat")
        counter.inc(7)
        gauge.set(3.5)
        hist.observe(0.25)
        registry.reset()
        # Same objects, zeroed in place: call-site references stay live.
        assert registry.counter("work") is counter
        assert counter.value == 0
        assert gauge.value == 0.0
        assert hist.count == 0
        assert hist.snapshot()["p99"] == 0.0
        counter.inc(2)
        assert registry.snapshot()["work"] == 2

    def test_snapshot_sink_reset_zeroes_aggregates(self):
        sink = SnapshotSink()
        with tracing(sink):
            with trace.span("work"):
                pass
        assert sink.registry.counter("span.work.count").value == 1
        sink.reset()
        assert sink.registry.counter("span.work.count").value == 0


class TestPrometheusConformance:
    """Exposition must stay parseable under adversarial metric names."""

    NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
    SAMPLE_RE = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})?'
        r' (\S+)$')

    def test_weird_metric_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("shard.worker.0.io.pages").inc(3)
        registry.counter("weird name/with:stuff!").inc(1)
        text = render_prometheus(registry)
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            assert self.SAMPLE_RE.match(line), line
        assert "repro_shard_worker_0_io_pages 3" in text

    def test_render_info_escapes_label_values(self):
        from repro.obs import render_info

        text = render_info("build_info", {
            "host": 'we"ird\nhost',
            "path": "back\\slash",
            "1leading_digit": "x",
        })
        line = text.strip().splitlines()[-1]
        assert self.SAMPLE_RE.match(line), line
        assert '\\"' in line          # quote escaped
        assert "\\n" in line          # newline escaped
        assert "\\\\" in line         # backslash escaped
        assert "_1leading_digit=" in line  # name made grammar-legal
        assert line.endswith(" 1")

    def test_render_info_round_trips_through_parser(self):
        from repro.obs import render_info

        text = render_info("build_info", {"git_sha": "abc123",
                                          "kernels": "numpy"})
        assert "# TYPE repro_build_info gauge" in text
        assert 'git_sha="abc123"' in text


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.note("tick", i=i)
        assert len(rec) == 3
        events = rec.events()
        assert [e["i"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]

    def test_note_converts_numpy_scalars(self):
        import numpy as np

        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=4)
        rec.note("x", pages=np.int64(7), frac=np.float64(0.5))
        event = rec.events()[0]
        assert type(event["pages"]) is int
        assert type(event["frac"]) is float
        json.dumps(event)  # must be JSON-safe end to end

    def test_dump_payload_and_rate_limit(self, tmp_path):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=8, directory=str(tmp_path),
                             min_dump_interval_s=3600.0)
        rec.note("budget_exhausted", query=3, cap="io_pages")
        path = rec.dump("budget_exhausted", extra={"engine": "batch"})
        assert path is not None
        payload = json.loads(open(path).read())
        assert payload["format"].startswith("repro-flight")
        assert payload["reason"] == "budget_exhausted"
        assert payload["extra"] == {"engine": "batch"}
        assert payload["events"][0]["kind"] == "budget_exhausted"
        assert "git_sha" in payload["provenance"]
        # Second dump of the same reason inside the window is suppressed;
        # force bypasses, a different reason is independent.
        assert rec.dump("budget_exhausted") is None
        assert rec.dump("budget_exhausted", force=True) is not None
        assert rec.dump("retry_giveup") is not None

    def test_install_swaps_process_recorder(self, tmp_path):
        from repro.obs import FlightRecorder, flight

        mine = FlightRecorder(capacity=4, directory=str(tmp_path))
        old = flight.install(mine)
        try:
            flight.note("hello", x=1)
            assert flight.recorder() is mine
            assert mine.events()[0]["kind"] == "hello"
        finally:
            assert flight.install(old) is mine

    def test_rides_along_as_trace_sink(self):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=16)
        with tracing(rec):
            with trace.span("round", radius=2):
                trace.io_event("read", 5, "bucket_scan")
        kinds = [e["kind"] for e in rec.events()]
        assert kinds == ["io", "span"]
        span = rec.events()[1]
        assert span["name"] == "round"
        assert span["radius"] == 2

    def test_cli_summarizes_flight_dump(self, tmp_path, capsys):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=4, directory=str(tmp_path))
        rec.note("budget_exhausted", query=1, cap="candidates")
        path = rec.dump("budget_exhausted", extra={"engine": "sharded"})
        assert obs_main([path]) == 0
        out = capsys.readouterr().out
        assert "Flight recorder postmortem" in out
        assert "budget_exhausted" in out
        assert "cap=candidates" in out
        assert obs_main([path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "budget_exhausted"


class TestRemoteGraft:
    def _worker_records(self):
        """Simulate a worker-side capture; returns exported records."""
        from repro.obs.remote import export_events

        with tracing() as local:
            with trace.span("shard.worker.round", shard=2, pid=12345):
                with trace.span("verify", count=4):
                    trace.io_event("read", 9, "data_read")
        return export_events(local.events)

    def test_graft_remaps_parents_under_open_span(self):
        from repro.obs.remote import graft

        records = self._worker_records()
        with tracing() as tr:
            with trace.span("shard.round", radius=1) as rspan:
                added = graft(records)
        assert added == 3
        by_name = {e.name: e for e in tr.events
                   if isinstance(e, SpanEvent)}
        worker = by_name["shard.worker.round"]
        assert worker.parent_id == rspan.span_id
        assert by_name["verify"].parent_id == worker.span_id
        io = next(e for e in tr.events if isinstance(e, IOEvent))
        assert io.span_id == by_name["verify"].span_id
        # Fresh ids: no collision with the receiving trace's own spans.
        ids = [e.span_id for e in tr.events if isinstance(e, SpanEvent)]
        assert len(ids) == len(set(ids))

    def test_graft_is_noop_without_a_trace(self):
        from repro.obs.remote import graft

        assert graft(self._worker_records()) == 0

    def test_grafted_events_reach_sinks_and_jsonl_round_trip(
            self, tmp_path):
        from repro.obs.remote import graft

        records = self._worker_records()
        path = tmp_path / "events.jsonl"
        live = SnapshotSink()
        with tracing(live, JsonlSink(path)):
            with trace.span("coordinator"):
                graft(records)
        assert live.registry.counter("io.read.data_read.pages").value == 9
        assert live.registry.counter(
            "span.shard.worker.round.count").value == 1
        replayed, = replay(load_jsonl(path), SnapshotSink())
        assert replayed.snapshot() == live.snapshot()

    def test_graft_root_attrs_merge(self):
        from repro.obs.remote import graft

        records = self._worker_records()
        with tracing() as tr:
            graft(records, worker=7)
        worker = next(e for e in tr.events if isinstance(e, SpanEvent)
                      and e.name == "shard.worker.round")
        assert worker.attrs["worker"] == 7
        assert worker.attrs["shard"] == 2  # worker stamp preserved


class TestObsServer:
    def _get(self, url):
        from urllib.request import urlopen

        with urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), \
                resp.read().decode()

    def test_metrics_healthz_and_flightrecorder(self):
        from repro.obs import FlightRecorder, ObsServer

        registry = MetricsRegistry()
        registry.counter("shard.io.pages").inc(42)
        rec = FlightRecorder(capacity=4)
        rec.note("budget_exhausted", query=0)
        with ObsServer(registry, recorder=rec) as srv:
            status, ctype, body = self._get(srv.url + "/metrics")
            assert status == 200
            assert "version=0.0.4" in ctype
            assert "repro_shard_io_pages 42" in body
            assert "repro_build_info{" in body

            status, ctype, body = self._get(srv.url + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["uptime_s"] >= 0.0

            status, _, body = self._get(srv.url + "/debug/flightrecorder")
            assert status == 200
            debug = json.loads(body)
            assert debug["capacity"] == 4
            assert debug["events"][0]["kind"] == "budget_exhausted"

    def test_unknown_path_is_404(self):
        from urllib.error import HTTPError

        from repro.obs import ObsServer

        with ObsServer(MetricsRegistry()) as srv:
            with pytest.raises(HTTPError) as err:
                self._get(srv.url + "/nope")
            assert err.value.code == 404

    def test_prefix_map_and_callable_metrics(self):
        from repro.obs import ObsServer

        late = {}

        def registries():
            return late

        with ObsServer(registries) as srv:
            # Registry created *after* start is still scraped.
            registry = MetricsRegistry()
            registry.counter("rounds").inc(3)
            late["repro_shard"] = registry
            _, _, body = self._get(srv.url + "/metrics")
            assert "repro_shard_rounds 3" in body

    def test_close_is_idempotent(self):
        from repro.obs import ObsServer

        srv = ObsServer(MetricsRegistry()).start()
        srv.close()
        srv.close()
        with pytest.raises(RuntimeError, match="not running"):
            srv.port


class TestDiff:
    def test_flatten_numeric_leaves_only(self):
        from repro.obs.diff import flatten

        flat = flatten({
            "a": {"b": 2, "c": [1.5, {"d": 3}]},
            "name": "text",
            "ok": True,
            "none": None,
        })
        assert flat == {"a.b": 2.0, "a.c.0": 1.5, "a.c.1.d": 3.0}

    def test_compare_directions_and_tolerance(self):
        from repro.obs.diff import compare

        base = {"seconds": 1.0, "qps": 100.0}
        cur = {"seconds": 1.4, "qps": 60.0}
        _, regressions = compare(base, cur, tolerance=0.25,
                                 direction="up")
        assert [r["key"] for r in regressions] == ["seconds"]
        _, regressions = compare(base, cur, tolerance=0.25,
                                 direction="down")
        assert [r["key"] for r in regressions] == ["qps"]
        _, regressions = compare(base, cur, tolerance=0.25,
                                 direction="any")
        assert [r["key"] for r in regressions] == ["qps", "seconds"]
        _, regressions = compare(base, cur, tolerance=0.5)
        assert regressions == []

    def test_compare_watch_ignore_and_min_base(self):
        from repro.obs.diff import compare

        base = {"seconds": 1.0, "tiny": 1e-9,
                "provenance": {"cpu_count": 4}}
        cur = {"seconds": 3.0, "tiny": 1e-6,
               "provenance": {"cpu_count": 64}}
        rows, regressions = compare(base, cur, watch=("seconds",),
                                    min_base=1e-6)
        assert [r["key"] for r in regressions] == ["seconds"]
        # provenance is ignored entirely, tiny is below the noise floor.
        assert all(r["key"] != "provenance.cpu_count" for r in rows)
        tiny = next(r for r in rows if r["key"] == "tiny")
        assert tiny["status"] == "unwatched"

    def test_compare_missing_and_added_keys(self):
        from repro.obs.diff import compare

        rows, regressions = compare({"gone": 1.0}, {"new": 2.0})
        status = {r["key"]: r["status"] for r in rows}
        assert status == {"gone": "missing", "new": "added"}
        assert regressions == []

    def test_cli_gate_exit_codes(self, tmp_path, capsys):
        base = {"query": {"seconds": 1.0, "io_pages": 500},
                "provenance": {"hostname": "a", "unix_time": 1.0}}
        current = json.loads(json.dumps(base))
        current["provenance"]["hostname"] = "b"   # ignored by default
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(base))
        cur_path.write_text(json.dumps(current))
        assert obs_main(["diff", str(base_path), str(cur_path)]) == 0
        assert "no regressions" in capsys.readouterr().out

        current["query"]["io_pages"] = 900  # +80%: beyond tolerance
        cur_path.write_text(json.dumps(current))
        assert obs_main(["diff", str(base_path), str(cur_path)]) == 1
        out = capsys.readouterr()
        assert "regressed" in out.out
        assert "metric(s) regressed" in out.err

    def test_cli_json_mode(self, tmp_path, capsys):
        base_path = tmp_path / "b.json"
        cur_path = tmp_path / "c.json"
        base_path.write_text(json.dumps({"x": 1.0}))
        cur_path.write_text(json.dumps({"x": 10.0}))
        assert obs_main(["diff", str(base_path), str(cur_path),
                         "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == ["x"]


class TestProvenance:
    def test_stamp_has_identifying_fields(self):
        from repro.obs import provenance

        stamp = provenance()
        assert set(stamp) >= {"git_sha", "hostname", "cpu_count",
                              "python", "numpy", "pid", "unix_time"}
        assert stamp["cpu_count"] >= 1
        json.dumps(stamp)  # must serialize as-is

    def test_metrics_snapshot_carries_provenance(self, tmp_path, capsys):
        assert harness.main(["table-params",
                             "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        snapshot = json.loads(
            (tmp_path / "t1_params_metrics.json").read_text())
        stamp = snapshot["provenance"]
        assert set(stamp) >= {"git_sha", "hostname", "cpu_count",
                              "python", "numpy"}

    def test_shared_sink_resets_between_experiments(self, tmp_path,
                                                    capsys):
        from repro.obs import SnapshotSink

        args = harness.build_parser().parse_args(
            ["table-params", "--out-dir", str(tmp_path)])
        sink = SnapshotSink()
        assert harness._run_safely("table-params", args, sink)
        first = json.loads(
            (tmp_path / "t1_params_metrics.json").read_text())
        assert harness._run_safely("table-params", args, sink)
        second = json.loads(
            (tmp_path / "t1_params_metrics.json").read_text())
        capsys.readouterr()
        # Without the reset the second run would report doubled counters.
        first.pop("provenance")
        second.pop("provenance")
        assert first == second

    def test_failed_experiment_leaves_flight_postmortem(self, tmp_path,
                                                        capsys,
                                                        monkeypatch):
        from repro.obs import FlightRecorder, flight

        mine = FlightRecorder(capacity=16, directory=str(tmp_path),
                              min_dump_interval_s=0.0)
        old = flight.install(mine)
        try:
            def boom(args):
                raise RuntimeError("synthetic failure")

            monkeypatch.setitem(harness.EXPERIMENTS, "table-params", boom)
            assert harness.main(["table-params",
                                 "--out-dir", str(tmp_path)]) == 1
        finally:
            flight.install(old)
        capsys.readouterr()
        flight_path = tmp_path / "table_params_flight.json"
        assert flight_path.exists()
        payload = json.loads(flight_path.read_text())
        assert payload["reason"] == "experiment_failed"
        assert payload["extra"] == {"experiment": "table-params"}
        assert any(e["kind"] == "experiment_failed"
                   for e in payload["events"])
        assert (tmp_path / "table_params_error.json").exists()

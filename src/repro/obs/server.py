"""ObsServer: a stdlib-only HTTP scrape surface for live telemetry.

Serving infrastructure needs three endpoints long before it needs a
framework: a Prometheus scrape target, a liveness probe, and a way to pull
the flight recorder without attaching a debugger. :class:`ObsServer`
provides exactly those over :mod:`http.server`:

* ``GET /metrics`` — Prometheus text exposition (version 0.0.4) of the
  configured registries, plus a ``<prefix>_build_info`` gauge carrying
  the provenance stamp as escaped labels;
* ``GET /healthz`` — ``{"status": "ok", "ready": ..., "uptime_s": ...}``;
* ``GET /debug/flightrecorder`` — the flight recorder's ring as JSON.

::

    engine = ShardedC2LSH(...).fit(data)
    with ObsServer({"repro_shard": engine.metrics}, port=9100) as srv:
        print("scrape", srv.url + "/metrics")
        serve_forever()

``port=0`` (the default) binds an ephemeral port — read it back from
``server.port`` — which is what tests and side-by-side smoke runs want.
Requests are served from a daemon thread; ``close()`` (or the context
manager) shuts it down.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .registry import MetricsRegistry
from .sinks import SnapshotSink, render_info, render_prometheus

__all__ = ["ObsServer"]

#: Content type of the Prometheus text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _as_registry_map(metrics):
    """Normalize the ``metrics`` argument to ``{prefix: registry}``."""
    if metrics is None:
        return {}
    if callable(metrics) and not isinstance(
            metrics, (MetricsRegistry, SnapshotSink)):
        return _as_registry_map(metrics())
    if isinstance(metrics, SnapshotSink):
        return {"repro": metrics.registry}
    if isinstance(metrics, MetricsRegistry):
        return {"repro": metrics}
    out = {}
    for prefix, registry in dict(metrics).items():
        if isinstance(registry, SnapshotSink):
            registry = registry.registry
        out[str(prefix)] = registry
    return out


class ObsServer:
    """Serve ``/metrics``, ``/healthz`` and ``/debug/flightrecorder``.

    Parameters
    ----------
    metrics:
        What ``/metrics`` renders: a :class:`MetricsRegistry`, a
        :class:`SnapshotSink`, a ``{prefix: registry}`` dict (each
        rendered under its own metric-name prefix), or a zero-argument
        callable returning any of those (re-evaluated per scrape, for
        registries that are created after the server starts).
    recorder:
        The :class:`~repro.obs.flight.FlightRecorder` behind
        ``/debug/flightrecorder``; defaults to the process-wide one.
    readiness:
        Optional zero-argument callable consulted per ``/healthz``
        request: return ``True``/``False``, or a JSON-safe dict with a
        ``"ready"`` key (extra keys land in the body under
        ``"readiness"``). Not-ready answers keep ``"status": "ok"`` —
        the process is alive — but carry ``"ready": false`` and HTTP
        503, which is what a load balancer's readiness probe keys on
        while a serving front-end drains or sheds load. Without a
        callback the body always reports ``"ready": true`` over HTTP
        200, and a callback that raises reports not-ready with the
        exception's name rather than a 500.
    host, port:
        Bind address. ``port=0`` picks an ephemeral port.
    """

    def __init__(self, metrics=None, recorder=None, readiness=None,
                 host="127.0.0.1", port=0):
        self._metrics = metrics
        self._readiness = readiness
        if recorder is None:
            from . import flight

            recorder = flight.recorder()
        self.recorder = recorder
        self._host = host
        self._requested_port = int(port)
        self._httpd = None
        self._thread = None
        self._started_at = None

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Bind the socket and start serving from a daemon thread."""
        if self._httpd is not None:
            raise RuntimeError("server is already running")
        self._httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), self._handler_class())
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-server",
            daemon=True)
        self._thread.start()
        return self

    def close(self):
        """Stop serving and release the socket (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self):
        if self._httpd is None:
            self.start()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    @property
    def port(self):
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._httpd is None:
            raise RuntimeError("server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self):
        """Base URL of the running server (no trailing slash)."""
        return f"http://{self._host}:{self.port}"

    # -- request handling ----------------------------------------------------

    def render_metrics(self):
        """The ``/metrics`` body: every registry plus build_info."""
        parts = []
        for prefix, registry in _as_registry_map(self._metrics).items():
            parts.append(render_prometheus(registry, prefix=prefix))
        from .provenance import provenance

        stamp = provenance()
        labels = {
            "git_sha": str(stamp.get("git_sha") or "unknown"),
            "hostname": str(stamp.get("hostname")),
            "python": str(stamp.get("python")),
            "numpy": str(stamp.get("numpy")),
        }
        parts.append(render_info("build_info", labels, prefix="repro"))
        return "".join(parts)

    def render_health(self):
        """The ``/healthz`` body and status code: ``(json_str, code)``.

        Liveness and readiness share the endpoint: ``"status"`` is
        always ``"ok"`` while the server answers at all (the process is
        alive), ``"ready"`` reflects the readiness callback (503 when
        false, so probes that only read status codes work unmodified).
        """
        import os

        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        body = {"status": "ok", "uptime_s": round(uptime, 3),
                "pid": os.getpid()}
        ready, detail = self._check_readiness()
        body["ready"] = ready
        if detail:
            body["readiness"] = detail
        return json.dumps(body, sort_keys=True), (200 if ready else 503)

    def _check_readiness(self):
        """Evaluate the readiness callback: ``(ready, detail_dict)``."""
        if self._readiness is None:
            return True, {}
        try:
            verdict = self._readiness()
        except Exception as exc:  # a broken probe is "not ready", not 500
            return False, {"error": type(exc).__name__}
        if isinstance(verdict, dict):
            detail = dict(verdict)
            ready = bool(detail.pop("ready", False))
            return ready, detail
        return bool(verdict), {}

    def render_flightrecorder(self):
        """The ``/debug/flightrecorder`` body (a JSON string)."""
        return json.dumps({
            "capacity": self.recorder.capacity,
            "dumps": self.recorder.dumps,
            "events": self.recorder.events(),
        }, sort_keys=True)

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                path = self.path.split("?", 1)[0]
                status = 200
                try:
                    if path == "/metrics":
                        body = server.render_metrics()
                        ctype = PROM_CONTENT_TYPE
                    elif path == "/healthz":
                        body, status = server.render_health()
                        ctype = "application/json"
                    elif path == "/debug/flightrecorder":
                        body = server.render_flightrecorder()
                        ctype = "application/json"
                    else:
                        self.send_error(404, "unknown path")
                        return
                except Exception as exc:  # surface, don't kill the thread
                    self.send_error(500, type(exc).__name__)
                    return
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, fmt, *args):
                """Scrapes are high-frequency; stay silent."""

        return Handler

    def __repr__(self):
        state = f"port={self.port}" if self._httpd is not None else "stopped"
        return f"ObsServer({state})"

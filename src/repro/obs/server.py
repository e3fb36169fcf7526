"""Live campaign telemetry over HTTP — stdlib only, strictly passive.

A long fault-injection campaign should be watchable while it runs, not
just autopsied from artifacts afterwards. :class:`StatusServer` runs a
:class:`http.server.ThreadingHTTPServer` on a background daemon thread
and exposes read-only endpoints:

* ``/metrics`` — the session's :class:`~repro.obs.MetricsRegistry`
  snapshot rendered in the OpenMetrics text format
  (:mod:`repro.obs.openmetrics`), scrapeable by Prometheus — plus the
  per-stratum posterior families of the tracker's
  :class:`~repro.obs.estimator.EstimatorTracker`;
* ``/status`` — one JSON document with executor progress, per-worker
  heartbeat ages, retry/chaos/journal accounting, and an ETA derived
  from the windowed task-completion rate;
* ``/estimates`` — the live per-stratum Beta-posterior document (means,
  credible intervals, CI half-widths vs. the stopping target);
* ``/events`` — a Server-Sent-Events bridge over the live
  :class:`~repro.obs.progress.ProgressSink` stream (one ``data:`` frame
  per progress event, with keepalive comments while the campaign is
  quiet);
* ``/healthz`` — liveness probe.

The server never *drives* anything: :class:`StatusTracker` and
:class:`SseSink` are ordinary progress sinks of the
:class:`~repro.obs.Session` that owns the server, all endpoint handlers
only read snapshots, and nothing here touches an RNG stream — a campaign
run with ``--serve`` is bit-identical to one without (enforced by parity
tests).

Slow or stuck SSE consumers are shed, not waited for: each client gets a
bounded queue and events that cannot be enqueued are counted and
dropped. Observability must not be able to stall the campaign.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.obs.estimator import EstimatorTracker, StoppingTarget
from repro.obs.progress import ProgressEvent, ProgressSink
from repro.obs.schema import artifact_stamp
from repro.utils.logging import get_logger
from repro.utils.persist import sanitize_nonfinite

__all__ = ["StatusTracker", "SseSink", "StatusServer", "parse_endpoint"]

_LOGGER = get_logger("obs.server")

#: completion timestamps kept for the windowed throughput / ETA estimate
DEFAULT_RATE_WINDOW = 64


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``"[HOST:]PORT"`` → ``(host, port)``; host defaults to localhost.

    Accepts ``"8080"``, ``"0.0.0.0:8080"``, and bracketed IPv6
    (``"[::1]:8080"``). Port ``0`` asks the OS for a free port.
    """
    spec = spec.strip()
    host, port_text = "127.0.0.1", spec
    if spec.startswith("["):  # [v6addr]:port
        closing = spec.find("]")
        if closing < 0 or not spec[closing + 1 :].startswith(":"):
            raise ValueError(f"malformed [HOST]:PORT spec {spec!r}")
        host, port_text = spec[1:closing], spec[closing + 2 :]
    elif ":" in spec:
        host, port_text = spec.rsplit(":", 1)
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"malformed port in {spec!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host or "127.0.0.1", port


# ---------------------------------------------------------------------- #
# live state derived from the progress stream
# ---------------------------------------------------------------------- #


class StatusTracker(ProgressSink):
    """Fold the progress-event stream into one queryable status document.

    The tracker knows nothing about the executor's internals — everything
    in :meth:`status` is derived from published events, so the same
    tracker works live (a sink of the session), against a replayed
    ``progress.jsonl`` (``repro top``), and across journal resumes (the
    journal publishes its replayed position).

    It is the one fold every reader shares: it owns the run's
    :class:`~repro.obs.estimator.EstimatorTracker` (:attr:`estimator`,
    armed with ``target``), feeds it every event and embeds its document
    in :meth:`status`, so ``/status``, ``/estimates``, ``repro top`` and
    postmortem bundles all read the same state.
    """

    def __init__(self, rate_window: int = DEFAULT_RATE_WINDOW, target: StoppingTarget | None = None) -> None:
        self.estimator = EstimatorTracker(target=target)
        self._lock = threading.Lock()
        self._completions: deque[float] = deque(maxlen=max(2, rate_window))
        self._started_wall: float | None = None
        self._tasks_total = 0
        self._workers = 0
        self._completed = 0
        self._failed = 0
        self._retries_by_cause: dict[str, int] = {}
        self._heartbeats = 0
        self._beats: dict[int, dict] = {}  # task index → last heartbeat payload
        self._journal_records: int | None = None
        self._journal_quarantined = 0
        self._chaos_fired: dict[str, int] = {}
        self._sweep_done = 0
        self._last_sweep: dict | None = None
        self._last_adaptive: dict | None = None
        self._last_complete: dict | None = None
        self._running = False
        self._events_seen = 0

    # -- sink side ----------------------------------------------------- #

    def emit(self, event: ProgressEvent) -> None:
        kind, payload = event.kind, event.payload
        with self._lock:
            self._events_seen += 1
            if kind == "executor.start":
                self._started_wall = event.wall_time
                self._tasks_total = int(payload.get("tasks", 0))
                self._workers = int(payload.get("workers", 0))
                self._completed = 0
                self._failed = 0
                self._retries_by_cause = {}
                self._heartbeats = 0
                self._beats.clear()
                self._completions.clear()
                self._last_complete = None
                self._running = True
            elif kind == "executor.task_done":
                self._completed += 1
                self._completions.append(event.wall_time)
                self._beats.pop(payload.get("task"), None)
            elif kind == "executor.task_failed":
                self._failed += 1
                self._beats.pop(payload.get("task"), None)
            elif kind == "executor.retry":
                cause = str(payload.get("cause", "unknown"))
                self._retries_by_cause[cause] = self._retries_by_cause.get(cause, 0) + 1
                self._beats.pop(payload.get("task"), None)
            elif kind == "executor.heartbeat":
                self._heartbeats += 1
                task = payload.get("task")
                if task is not None:
                    self._beats[task] = {**payload, "wall_time": event.wall_time}
            elif kind == "executor.complete":
                self._last_complete = dict(payload)
                self._beats.clear()
                self._running = False
            elif kind in ("journal.append", "journal.replayed"):
                self._journal_records = int(payload.get("records", 0))
            elif kind == "journal.quarantined":
                self._journal_quarantined += int(payload.get("lines", 1))
            elif kind == "chaos.fired":
                site = str(payload.get("site", "?"))
                self._chaos_fired[site] = self._chaos_fired.get(site, 0) + 1
            elif kind == "sweep.point":
                self._sweep_done += 1
                self._last_sweep = dict(payload)
            elif kind == "adaptive.progress":
                self._last_adaptive = dict(payload)
        self.estimator.emit(event)

    # -- query side ---------------------------------------------------- #

    def _rate(self) -> float | None:
        """Windowed completions/second, or ``None`` before two completions."""
        if len(self._completions) < 2:
            return None
        span = self._completions[-1] - self._completions[0]
        if span <= 0:
            return None
        return (len(self._completions) - 1) / span

    def status(self) -> dict:
        """The current ``/status`` document (JSON-safe, self-contained)."""
        now = time.time()
        with self._lock:
            remaining = max(0, self._tasks_total - self._completed - self._failed)
            rate = self._rate()
            eta_s = remaining / rate if (rate and self._running) else None
            workers = {
                str(task): {
                    "pid": beat.get("pid"),
                    "attempt": beat.get("attempt"),
                    "elapsed_s": beat.get("elapsed_s"),
                    "heartbeat_age_s": max(0.0, now - beat["wall_time"]),
                }
                for task, beat in self._beats.items()
            }
            document = sanitize_nonfinite(
                {
                    **artifact_stamp(),
                    "running": self._running,
                    "started_wall": self._started_wall,
                    "tasks": {
                        "total": self._tasks_total,
                        "completed": self._completed,
                        "failed": self._failed,
                        "remaining": remaining,
                        "retries": sum(self._retries_by_cause.values()),
                        "retries_by_cause": dict(self._retries_by_cause),
                    },
                    "rate_per_s": rate,
                    "eta_s": eta_s,
                    "workers": workers,
                    "heartbeats": self._heartbeats,
                    "journal": {
                        "records": self._journal_records,
                        "quarantined": self._journal_quarantined,
                    },
                    "chaos_fired": dict(self._chaos_fired),
                    "sweep": {"points_done": self._sweep_done, "last": self._last_sweep},
                    "adaptive": self._last_adaptive,
                    "last_complete": self._last_complete,
                    "events_seen": self._events_seen,
                }
            )
        document["estimator"] = self.estimator.estimates()
        return document


# ---------------------------------------------------------------------- #
# SSE fan-out
# ---------------------------------------------------------------------- #


class SseSink(ProgressSink):
    """Bridge the progress stream to Server-Sent-Events subscribers.

    Each subscriber owns a bounded queue; a consumer that stops reading
    loses events (counted in :attr:`dropped`) instead of exerting any
    backpressure on the campaign. ``None`` is the shutdown sentinel.
    """

    def __init__(self, max_queue: int = 256) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[queue.Queue] = []
        self._max_queue = max_queue
        self.dropped = 0
        self.delivered = 0
        self._closed = False

    def subscribe(self) -> queue.Queue:
        client: queue.Queue = queue.Queue(maxsize=self._max_queue)
        with self._lock:
            if self._closed:
                client.put_nowait(None)
            else:
                self._subscribers.append(client)
        return client

    def unsubscribe(self, client: queue.Queue) -> None:
        with self._lock:
            if client in self._subscribers:
                self._subscribers.remove(client)

    @property
    def subscribers(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def emit(self, event: ProgressEvent) -> None:
        with self._lock:
            clients = list(self._subscribers)
        if not clients:
            return
        frame = json.dumps(event.to_dict(), allow_nan=False)
        for client in clients:
            try:
                client.put_nowait(frame)
                self.delivered += 1
            except queue.Full:
                self.dropped += 1

    def close(self) -> None:
        with self._lock:
            self._closed = True
            clients = list(self._subscribers)
            self._subscribers.clear()
        for client in clients:
            try:
                client.put_nowait(None)
            except queue.Full:
                pass  # the pending backlog still ends with a dead connection


# ---------------------------------------------------------------------- #
# the HTTP server
# ---------------------------------------------------------------------- #

_OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


class StatusServer:
    """Background-thread HTTP server for live campaign telemetry.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    tracker:
        The :class:`StatusTracker` backing ``/status`` and ``/estimates``
        (optional — without one ``/status`` reports ``tracker: null`` and
        ``/estimates`` returns 503). Its estimator's per-stratum
        posterior families are also appended to ``/metrics``. The
        server's own :class:`SseSink` (:attr:`sse`) backs ``/events``;
        publish events to it to stream them.
    labels:
        Labels attached to every ``/metrics`` sample (campaign id, pid).
    keepalive_s:
        Idle interval after which ``/events`` emits an SSE comment so
        proxies and clients can tell a quiet campaign from a dead one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tracker: StatusTracker | None = None,
        labels: Mapping[str, str] | None = None,
        keepalive_s: float = 15.0,
    ) -> None:
        self.host = host
        self.requested_port = port
        self.tracker = tracker
        self.sse = SseSink()
        self.labels = dict(labels or {})
        self.keepalive_s = keepalive_s
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._started_wall: float | None = None

    # -- lifecycle ----------------------------------------------------- #

    @property
    def port(self) -> int:
        """The bound port (resolves port-0 requests after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self.requested_port

    @property
    def url(self) -> str:
        host = self.host if ":" not in self.host else f"[{self.host}]"
        return f"http://{host}:{self.port}"

    def start(self) -> "StatusServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            raise RuntimeError("status server already started")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.requested_port), handler)
        self._httpd.daemon_threads = True
        self._stopping.clear()
        self._started_wall = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-status-server",
            daemon=True,
        )
        self._thread.start()
        _LOGGER.info("status server listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Shut down the listener and unblock every SSE stream."""
        if self._httpd is None:
            return
        self._stopping.set()
        self.sse.close()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- endpoint payloads (handler delegates here) --------------------- #

    def metrics_payload(self) -> str:
        import repro.obs as obs  # lazy: repro.obs must not import this module eagerly
        from repro.obs.openmetrics import render_openmetrics

        registry = obs.metrics()
        snapshot = registry.snapshot() if registry is not None else None
        families = self.tracker.estimator.metric_families() if self.tracker is not None else None
        return render_openmetrics(snapshot, labels=self.labels or None, families=families)

    def estimates_payload(self) -> dict | None:
        """The ``/estimates`` document, or ``None`` with no tracker attached."""
        if self.tracker is None:
            return None
        return {**artifact_stamp(), **self.tracker.estimator.estimates()}

    def status_payload(self) -> dict:
        document = self.tracker.status() if self.tracker is not None else {"tracker": None}
        document["server"] = {
            "url": self.url,
            "uptime_s": (time.time() - self._started_wall) if self._started_wall else 0.0,
            "sse_subscribers": self.sse.subscribers,
            "sse_dropped": self.sse.dropped,
        }
        return document


def _make_handler(server: StatusServer):
    """Build the request-handler class bound to one :class:`StatusServer`."""

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # requests are logged at debug, not printed to stderr
        def log_message(self, fmt, *args):  # noqa: A003 — BaseHTTPRequestHandler API
            _LOGGER.debug("%s %s", self.address_string(), fmt % args)

        def _send_text(self, body: str, content_type: str, code: int = 200) -> None:
            payload = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send_json(self, document, code: int = 200) -> None:
            self._send_text(
                json.dumps(sanitize_nonfinite(document), allow_nan=False, indent=2) + "\n",
                "application/json; charset=utf-8",
                code,
            )

        def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/healthz":
                    self._send_text("ok\n", "text/plain; charset=utf-8")
                elif path == "/metrics":
                    self._send_text(server.metrics_payload(), _OPENMETRICS_CONTENT_TYPE)
                elif path == "/status":
                    self._send_json(server.status_payload())
                elif path == "/estimates":
                    document = server.estimates_payload()
                    if document is None:
                        self._send_json({"error": "no estimator attached"}, code=503)
                    else:
                        self._send_json(document)
                elif path == "/events":
                    self._serve_events()
                elif path == "/":
                    self._send_json(
                        {
                            **artifact_stamp(),
                            "endpoints": [
                                "/metrics", "/status", "/estimates", "/events", "/healthz",
                            ],
                        }
                    )
                else:
                    self._send_json({"error": f"no such endpoint {path!r}"}, code=404)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage
            except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the thread
                _LOGGER.warning("status server: %s failed: %s", path, exc)
                try:
                    self._send_json({"error": str(exc)}, code=500)
                except OSError:
                    pass

        def _serve_events(self) -> None:
            client = server.sse.subscribe()
            try:
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream; charset=utf-8")
                self.send_header("Cache-Control", "no-store")
                # SSE is unbounded; close delimits the stream instead of a length
                self.send_header("Connection", "close")
                self.end_headers()
                while not server._stopping.is_set():
                    try:
                        frame = client.get(timeout=server.keepalive_s)
                    except queue.Empty:
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                        continue
                    if frame is None:  # shutdown sentinel
                        break
                    self.wfile.write(f"data: {frame}\n\n".encode("utf-8"))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # consumer disconnected; drop its queue and move on
            finally:
                server.sse.unsubscribe(client)
                self.close_connection = True

    return _Handler

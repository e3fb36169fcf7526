"""Trace spans in Chrome-trace format, viewable in Perfetto.

A :class:`Tracer` records *complete* events (``ph: "X"``) — named spans
with microsecond start/duration from the monotonic clock, tagged with the
recording process id and thread id — plus *instant* events for point
occurrences. The export format is the Chrome Trace Event JSON object
(``{"traceEvents": [...]}``), which loads directly in
https://ui.perfetto.dev or ``chrome://tracing``.

Spans nest naturally through the context-manager API::

    with tracer.span("executor.execute", tasks=13):
        with tracer.span("campaign.forward", p=1e-3):
            ...

Worker processes record into their own tracer (fresh per process, so the
pid tag is honest) and ship the drained event list back over the result
pipe; the driver merges them, so one trace file shows the driver timeline
and every worker's campaign spans side by side as separate process
tracks.

The default tracer is *disabled*: ``span`` is a no-op yield and nothing
allocates, so instrumentation sites cost almost nothing until a trace is
requested (CLI ``--trace PATH`` or ``repro.obs.Session(tracer=True)``).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager

from repro.obs.profile import clock_s
from repro.utils.persist import atomic_write_bytes, sanitize_nonfinite

__all__ = ["Tracer"]


def _now_us() -> float:
    """Monotonic timestamp in microseconds (Chrome-trace time unit).

    Rides the library's canonical duration clock
    (:func:`repro.obs.profile.clock_s`, i.e. ``perf_counter``) —
    CLOCK_MONOTONIC-based on Linux, so timestamps are comparable across
    fork-started worker processes on the same host.
    """
    return clock_s() * 1e6


class Tracer:
    """Span recorder emitting Chrome-trace ``traceEvents``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[dict] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    @contextmanager
    def span(self, name: str, category: str = "repro", **args):
        """Record a complete event around the enclosed block.

        ``args`` become the span's ``args`` payload (shown on click in
        Perfetto); keep them small and JSON-representable.
        """
        if not self.enabled:
            yield
            return
        start = _now_us()
        try:
            yield
        finally:
            end = _now_us()
            self._append(
                {
                    "name": name,
                    "cat": category,
                    "ph": "X",
                    "ts": start,
                    "dur": end - start,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "args": {key: _clean(value) for key, value in args.items()},
                }
            )

    def instant(self, name: str, category: str = "repro", **args) -> None:
        """Record a zero-duration instant event (scope: thread)."""
        if not self.enabled:
            return
        self._append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "s": "t",
                "ts": _now_us(),
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": {key: _clean(value) for key, value in args.items()},
            }
        )

    def _append(self, event: dict) -> None:
        with self._lock:
            self.events.append(event)

    # ------------------------------------------------------------------ #
    # reduction and export
    # ------------------------------------------------------------------ #

    def drain(self) -> list[dict]:
        """Remove and return all recorded events (worker → driver shipping)."""
        with self._lock:
            events, self.events = self.events, []
        return events

    def merge(self, events: list[dict] | None) -> None:
        """Fold another tracer's drained events in (e.g. from a worker)."""
        if not events:
            return
        with self._lock:
            self.events.extend(events)

    def export(self) -> dict:
        """The Chrome Trace Event JSON object (sorted by timestamp)."""
        from repro.obs.schema import artifact_stamp

        with self._lock:
            events = sorted(self.events, key=lambda e: e["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "format_version": 1, **artifact_stamp()},
        }

    def save(self, path: str) -> None:
        """Atomically write the trace as Chrome-trace JSON.

        Plain JSON (no embedded checksum key) so Perfetto and
        ``chrome://tracing`` load the file as-is; atomicity still comes
        from the tmp-file + ``os.replace`` write path.
        """
        payload = sanitize_nonfinite(self.export())
        atomic_write_bytes(path, json.dumps(payload).encode("utf-8"))

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, events={len(self)})"


def _clean(value):
    """JSON-safe view of a span arg (numbers/strings pass, the rest reprs)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)

"""The trace event store, in Chrome-trace format, viewable in Perfetto.

A :class:`Tracer` holds *complete* events (``ph: "X"``): named spans with
microsecond start/duration from the library's monotonic clock, tagged
with the recording process id and thread id. The export format is the
Chrome Trace Event JSON object (``{"traceEvents": [...]}``), which loads
directly in https://ui.perfetto.dev or ``chrome://tracing``.

The tracer does not time anything itself. :func:`repro.obs.span` reads
the clock on entry and exit and hands both readings to
:meth:`Tracer.complete` (and the same two readings to the session's
profiler), so the trace and the profile cover the same regions::

    with obs.Session(tracer=True) as session:
        with obs.span("sweep", points=13):
            with obs.span("campaign.forward", p=1e-3):
                ...
    session.tracer.save("trace.json")

Worker processes record into their own tracer (fresh per process, so the
pid tag is honest) and ship the drained event list back over the result
pipe; the driver merges them, so one trace file shows the driver timeline
and every worker's campaign spans side by side as separate process
tracks. A session without tracing has no tracer at all
(``Session.tracer is None``).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Mapping

from repro.utils.persist import atomic_write_bytes, sanitize_nonfinite

__all__ = ["Tracer"]


class Tracer:
    """Chrome-trace ``traceEvents`` store."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def complete(self, name: str, category: str, start_s: float, end_s: float, args: Mapping) -> None:
        """Append one complete event spanning two :func:`~repro.obs.profile.clock_s` readings.

        ``args`` become the event's ``args`` payload (shown on click in
        Perfetto); values that are not JSON scalars are stored as their
        ``repr``.
        """
        start_us = start_s * 1e6
        event = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": start_us,
            "dur": end_s * 1e6 - start_us,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": {key: _clean(value) for key, value in args.items()},
        }
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
        return f"Tracer(events={len(self)})"


def _clean(value):
    """JSON-safe view of a span arg (numbers/strings pass, the rest reprs)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)

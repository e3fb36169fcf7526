"""Live progress events and pluggable sinks.

Long campaigns publish small, structured :class:`ProgressEvent`s while
they run — windowed mixing diagnostics from adaptive campaigns, per-point
sweep completions, executor heartbeats, chain-loop checkpoints — so a
multi-hour run is observable *before* its final JSON lands.

Events flow to a :class:`ProgressSink`:

* :class:`MemorySink` — in-process list, for tests and notebooks;
* :class:`JsonlSink` — one JSON object per line, machine-tailable
  (``tail -f campaign.progress.jsonl | jq``);
* :class:`StderrSink` — human-readable one-line-per-event stream
  (the CLI's ``--progress`` flag).

A :class:`~repro.obs.Session` fans each event out to all of its sinks.

Publishing is fire-and-forget and never raises into the campaign: a sink
that fails is logged and the campaign continues — observability must not
take down the thing it observes.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

from repro.utils.logging import get_logger
from repro.utils.persist import sanitize_nonfinite

__all__ = ["ProgressEvent", "ProgressSink", "MemorySink", "JsonlSink", "StderrSink"]

_LOGGER = get_logger("obs.progress")


@dataclass(frozen=True)
class ProgressEvent:
    """One observation published mid-campaign.

    ``kind`` namespaces the event (``adaptive.progress``, ``sweep.point``,
    ``executor.heartbeat``, ``chain.progress``, ``task.done`` …);
    ``payload`` carries the numbers. ``wall_time`` is the Unix timestamp
    at publication and ``pid`` the publishing process.
    """

    kind: str
    payload: dict = field(default_factory=dict)
    wall_time: float = field(default_factory=time.time)
    pid: int = field(default_factory=os.getpid)

    def to_dict(self) -> dict:
        # envelope fields written last so a payload key can never clobber them
        return sanitize_nonfinite(
            {**self.payload, "kind": self.kind, "wall_time": self.wall_time, "pid": self.pid}
        )

    def render(self) -> str:
        """Compact single-line rendering for terminal streams."""
        parts = []
        for key, value in self.payload.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.4g}")
            elif isinstance(value, (list, dict)):
                parts.append(f"{key}={json.dumps(sanitize_nonfinite(value))}")
            else:
                parts.append(f"{key}={value}")
        return f"[{self.kind}] " + " ".join(parts)


class ProgressSink:
    """Base sink; subclasses implement :meth:`emit`."""

    def publish(self, event: ProgressEvent) -> None:
        """Deliver one event; failures are contained (logged, not raised)."""
        try:
            self.emit(event)
        except Exception as exc:  # noqa: BLE001 — observability must not kill campaigns
            _LOGGER.warning("progress sink %s failed: %s", type(self).__name__, exc)

    def emit(self, event: ProgressEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further publishes are undefined."""


class MemorySink(ProgressSink):
    """Collect events in memory (tests, notebooks)."""

    def __init__(self) -> None:
        self.events: list[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[ProgressEvent]:
        return [event for event in self.events if event.kind == kind]


class JsonlSink(ProgressSink):
    """Append events as JSON lines to a file (machine-tailable).

    A fresh file opens with one ``progress.header`` line carrying the
    artifact schema stamp (:mod:`repro.obs.schema`); consumers treat the
    header as just another event, and stamp-less streams written by
    older versions still load as v0.
    """

    def __init__(self, path: str) -> None:
        from repro.obs.schema import artifact_stamp

        self.path = os.path.abspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        if self._handle.tell() == 0:  # new stream: stamp it before any event
            self._handle.write(
                json.dumps({**artifact_stamp(), "kind": "progress.header"}, allow_nan=False) + "\n"
            )
            self._handle.flush()

    def emit(self, event: ProgressEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), allow_nan=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class StderrSink(ProgressSink):
    """Render events as one-line progress messages on a stream."""

    def __init__(self, stream=None) -> None:
        self._stream = stream

    def emit(self, event: ProgressEvent) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        stream.write(event.render() + "\n")
        stream.flush()

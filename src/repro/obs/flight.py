"""Flight recorder: a bounded ring of recent events + crash postmortems.

Post-hoc artifacts (metrics JSON, traces, progress JSONL) answer "what
happened over the whole run"; a *crash* needs the opposite — a small,
always-on window of what happened **just before** things went wrong. The
:class:`FlightRecorder` keeps a bounded ring buffer of recent structured
events (every :func:`repro.obs.publish` event — chaos fires, worker
heartbeats, retries, journal appends and CRC quarantines, task
completions/failures, chain progress) and, on
campaign failure/degrade/abort or on ``SIGUSR1``, atomically dumps a
*postmortem bundle*:

* the ring buffer contents (most recent last),
* the session's :class:`~repro.obs.MetricsRegistry` snapshot,
* the profiler hot-spot table (when ``--profile`` is on),
* the active chaos plan and its per-site fire counts,
* the per-stratum posterior document of the session's status fold
  (:mod:`repro.obs.estimator`), so a postmortem carries the statistical
  state of the campaign at death, not just its mechanics,
* executor completeness accounting when the executor triggered the dump,
* environment (python/numpy/platform/pid) and the schema stamp.

Bundles are written through :mod:`repro.utils.persist`
(atomic + checksummed) and load back via :func:`load_postmortem`, which
accepts stamp-less v0 bundles.

The recorder is an ordinary :class:`~repro.obs.progress.ProgressSink`
of the current :class:`~repro.obs.Session`, and like every obs
instrument it is strictly passive: recording is an O(1) deque append
under a lock and nothing touches an RNG stream.
"""

from __future__ import annotations

import itertools
import os
import platform
import signal
import sys
import threading
from typing import Mapping

from repro.obs.progress import ProgressEvent, ProgressSink
from repro.obs.schema import artifact_stamp, artifact_version
from repro.utils.logging import get_logger
from repro.utils.persist import atomic_write_json, read_checked_json, sanitize_nonfinite

__all__ = ["FlightRecorder", "PostmortemError", "enable_signal_dump", "load_postmortem"]

_LOGGER = get_logger("obs.flight")

#: default ring capacity — big enough to cover the tail of a large
#: campaign (heartbeats + task events), small enough to dump instantly
DEFAULT_CAPACITY = 512


class PostmortemError(RuntimeError):
    """A postmortem bundle is unreadable or not a postmortem."""


class FlightRecorder(ProgressSink):
    """Bounded ring buffer of recent structured events with postmortem dumps.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events fall off as new ones arrive.
    autodump_dir:
        Directory for automatic dumps (executor failure hooks, SIGUSR1).
        ``None`` disables automatic dumping — :meth:`dump` still works
        with an explicit path.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, autodump_dir: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        from collections import deque

        self.capacity = capacity
        self.autodump_dir = autodump_dir
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0
        self._recorded = 0
        self._dump_counter = itertools.count(1)
        #: paths of every bundle this recorder has written (newest last)
        self.dumps: list[str] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def emit(self, event: ProgressEvent) -> None:
        """Append one published event to the ring (cheap, thread-safe)."""
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event.to_dict())
            self._recorded += 1

    def events(self) -> list[dict]:
        """Ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including those aged off the ring)."""
        with self._lock:
            return self._recorded

    @property
    def dropped(self) -> int:
        """Events that aged off the bounded ring."""
        with self._lock:
            return self._dropped

    # ------------------------------------------------------------------ #
    # postmortem bundles
    # ------------------------------------------------------------------ #

    def bundle(self, reason: str, stats: Mapping | None = None) -> dict:
        """Assemble the postmortem payload (no I/O)."""
        import numpy

        import repro.obs as obs
        from repro.exec import chaos
        from repro.obs.profile import wall_display

        session = obs.current()
        registry, profiler, status = session.metrics, session.profiler, session.status
        injector = chaos.active()
        with self._lock:
            events = list(self._ring)
            dropped = self._dropped
            recorded = self._recorded
        return sanitize_nonfinite(
            {
                **artifact_stamp(),
                "bundle": "repro-postmortem",
                "reason": reason,
                "created": wall_display(),
                "pid": os.getpid(),
                "environment": {
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": sys.platform,
                    "cpu_count": os.cpu_count(),
                    "argv": list(sys.argv),
                },
                "events": events,
                "events_recorded": recorded,
                "events_dropped": dropped,
                "metrics": registry.snapshot() if registry is not None else None,
                "profile_hotspots": profiler.hotspot_rows(30) if profiler is not None else None,
                "chaos": None
                if injector is None
                else {"plan": injector.plan.describe(), "fired": injector.fired()},
                "estimator": status.estimator.estimates() if status is not None else None,
                "executor": dict(stats) if stats is not None else None,
            }
        )

    def dump(self, path: str | None = None, reason: str = "manual", stats: Mapping | None = None) -> str:
        """Atomically write a postmortem bundle; returns its path.

        With no explicit ``path``, a unique name is minted under
        ``autodump_dir`` (which must then be set).
        """
        if path is None:
            if self.autodump_dir is None:
                raise ValueError("no path given and autodump_dir is not set")
            slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
            path = os.path.join(
                self.autodump_dir,
                f"postmortem-{os.getpid()}-{next(self._dump_counter)}-{slug}.json",
            )
        atomic_write_json(path, self.bundle(reason, stats=stats))
        self.dumps.append(path)
        _LOGGER.warning("flight recorder: postmortem bundle written to %s (%s)", path, reason)
        return path

    def maybe_autodump(self, reason: str, stats: Mapping | None = None) -> str | None:
        """Dump iff automatic dumping is configured; never raises into callers."""
        if self.autodump_dir is None:
            return None
        try:
            return self.dump(reason=reason, stats=stats)
        except Exception as exc:  # noqa: BLE001 — a failing dump must not mask the failure
            _LOGGER.warning("flight recorder: postmortem dump failed: %s", exc)
            return None

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, events={len(self.events())}, "
            f"autodump_dir={self.autodump_dir!r})"
        )


def enable_signal_dump(recorder: FlightRecorder):
    """Dump a postmortem bundle on ``SIGUSR1`` (where the platform has it).

    Returns the handler it replaced — pass it back to :func:`signal.signal`
    to restore it — or ``None`` when nothing was installed (no
    ``SIGUSR1``, or not the main thread). The handler is best-effort and
    never raises into the interrupted frame.
    """
    if not hasattr(signal, "SIGUSR1"):
        return None

    def _handler(signum, frame):  # noqa: ARG001 — signal handler signature
        recorder.maybe_autodump("sigusr1")

    try:
        previous = signal.signal(signal.SIGUSR1, _handler)
    except ValueError:  # not the main thread
        return None
    # a handler installed outside Python reads back as None
    return signal.SIG_DFL if previous is None else previous


def load_postmortem(path: str) -> dict:
    """Load a postmortem bundle written by :meth:`FlightRecorder.dump`.

    Verifies the persistence checksum, checks the bundle marker, and
    normalises the version fields — a stamp-less bundle loads as
    ``schema_version`` 0 (:mod:`repro.obs.schema`).
    """
    record_ = read_checked_json(path)
    if record_.get("bundle") != "repro-postmortem":
        raise PostmortemError(f"{path}: not a postmortem bundle")
    record_["schema_version"] = artifact_version(record_)
    record_.setdefault("repro_version", None)
    if not isinstance(record_.get("events"), list):
        raise PostmortemError(f"{path}: bundle has no events list")
    return record_

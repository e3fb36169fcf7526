"""repro.obs — zero-dependency campaign observability.

The instrumentation spine of the library: a :class:`MetricsRegistry`
(counters/gauges/histograms with snapshot/merge reduction), one
:func:`span` timer whose readings feed both a :class:`Tracer` (Chrome-trace
JSON viewable in Perfetto) and a :class:`Profiler`, and a pluggable live
:class:`ProgressSink` stream — wired through every execution layer
(injector campaigns, worker pools, journal fsyncs, MCMC chain loops).

Every instrument of one run belongs to one :class:`Session`: the metrics
registry, tracer, profiler, progress sinks, the status fold
(:class:`~repro.obs.server.StatusTracker`, which owns the per-stratum
estimator), the flight recorder and the status server. ``with
obs.Session(...)`` makes it the process's current session and, on exit,
stops the server, closes every sink, restores the ``SIGUSR1`` handler
and reinstates the previous session. Outside any ``with`` block an empty
session is current, so the instrumentation sites below cost a no-op:

* :func:`span` — times a region with two clock readings and feeds both
  to the session's tracer (one Chrome-trace event) and profiler (one
  dotted phase), whichever are on, so the trace and the profile cover
  the same regions; the caller can read the span's ``elapsed``;
* :func:`tracer` / :func:`profiler` — the session's tracer and profiler,
  or ``None`` when off;
* :func:`metrics` — the session's run-wide registry, or ``None`` when
  detailed metrics are off (campaigns still stamp their own per-campaign
  digest either way);
* :func:`publish` — one loop over the session's sinks; :func:`listening`
  tells a site whether building an event payload is worth it.

Worker processes never share the parent's session: the executor captures
a picklable :class:`WorkerObsConfig` (:meth:`Session.worker_config`) and
each worker enters ``config.session()`` first thing, replacing any state
inherited through ``fork`` with fresh instruments. Metrics ride home on
each result's digest; trace events and profile snapshots are drained via
:meth:`Session.worker_report` and shipped over the result pipe.

Observability is deliberately *passive*: nothing here touches an RNG
stream, so instrumented campaigns are bit-identical to uninstrumented
ones.
"""

from __future__ import annotations

import logging
import signal
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs import profile as _profile_mod
from repro.obs.flight import FlightRecorder, enable_signal_dump
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import Profiler, clock_s, profile_module
from repro.obs.progress import JsonlSink, MemorySink, ProgressEvent, ProgressSink, StderrSink
from repro.obs.schema import SCHEMA_VERSION, artifact_stamp, artifact_version
from repro.obs.trace import Tracer
from repro.utils.logging import get_verbosity, set_verbosity

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "profile_module",
    "Tracer",
    "ProgressEvent",
    "ProgressSink",
    "MemorySink",
    "JsonlSink",
    "StderrSink",
    "SCHEMA_VERSION",
    "artifact_stamp",
    "artifact_version",
    "Session",
    "WorkerObsConfig",
    "current",
    "configure",
    "metrics",
    "tracer",
    "profiler",
    "span",
    "listening",
    "publish",
    "merge_metrics",
    "merge_campaign_metrics",
]


def _instrument(value, factory):
    """``True`` → a fresh instrument; ``False``/``None`` → off; else the instance."""
    if value is True:
        return factory()
    return None if value is False else value


class Session:
    """Every observability instrument of one run, installed as a unit.

    ``metrics``/``profiler``/``tracer`` take ``True`` (a fresh instrument),
    an instance, or ``None`` (off). ``sinks`` are progress sinks; ``status``
    is the :class:`~repro.obs.server.StatusTracker` fold (created when
    ``serve`` is given without one); ``recorder`` is a
    :class:`~repro.obs.flight.FlightRecorder`. ``serve=(host, port)`` runs a
    :class:`~repro.obs.server.StatusServer` (``labels`` on every
    ``/metrics`` sample) while the session is current, ``signal_dump``
    dumps a postmortem bundle on ``SIGUSR1``, and ``verbosity`` sets the
    library log level. Exit undoes all of it.
    """

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | bool | None = None,
        tracer: Tracer | bool | None = None,
        profiler: Profiler | bool | None = None,
        sinks: Iterable[ProgressSink] = (),
        status=None,
        recorder: FlightRecorder | None = None,
        serve: tuple[str, int] | None = None,
        labels: Mapping[str, str] | None = None,
        signal_dump: bool = False,
        verbosity: int | str | None = None,
    ) -> None:
        self.metrics = _instrument(metrics, MetricsRegistry)
        self.tracer = _instrument(tracer, Tracer)
        self.profiler = _instrument(profiler, Profiler)
        self.server = None
        if serve is not None:
            # lazy: the HTTP stack loads only for sessions that serve
            from repro.obs.server import StatusServer, StatusTracker

            status = status if status is not None else StatusTracker()
            self.server = StatusServer(*serve, tracker=status, labels=labels)
        self.status = status
        self.recorder = recorder
        self.sinks: tuple[ProgressSink, ...] = tuple(
            sink for sink in (*sinks, status, self.server, recorder) if sink is not None
        )
        self.signal_dump = signal_dump
        self.verbosity = verbosity
        self._previous: Session | None = None
        self._saved_verbosity: int | None = None
        #: the SIGUSR1 handler to put back on exit (None: nothing replaced)
        self._saved_handler = None

    def __enter__(self) -> "Session":
        self._previous = _current
        if self.verbosity is not None:
            self._saved_verbosity = get_verbosity()
            set_verbosity(self.verbosity)
        if self.signal_dump and self.recorder is not None:
            self._saved_handler = enable_signal_dump(self.recorder)
        _install(self)
        if self.server is not None:
            try:
                self.server.start()
            except BaseException:
                self.__exit__(None, None, None)
                raise
        return self

    def __exit__(self, *_exc) -> None:
        try:
            if self.server is not None:
                self.server.stop()
            if self._saved_handler is not None:
                signal.signal(signal.SIGUSR1, self._saved_handler)
                self._saved_handler = None
            for sink in self.sinks:
                sink.close()
        finally:
            if self._saved_verbosity is not None:
                set_verbosity(self._saved_verbosity)
                self._saved_verbosity = None
            _install(self._previous)

    # -- worker propagation -------------------------------------------- #

    def worker_config(self) -> "WorkerObsConfig":
        """This session's instrument switches, for a worker to rebuild."""
        return WorkerObsConfig(
            verbosity=get_verbosity(),
            trace=self.tracer is not None,
            detailed_metrics=self.metrics is not None,
            profile=self.profiler is not None,
        )

    def worker_report(self) -> dict:
        """Worker-side observations to ship back over the result pipe."""
        report: dict = {}
        if self.tracer is not None:
            events = self.tracer.drain()
            if events:
                report["trace"] = events
        if self.profiler is not None:
            snapshot = self.profiler.snapshot()
            if any(snapshot.values()):
                report["profile"] = snapshot
        return report


@dataclass(frozen=True)
class WorkerObsConfig:
    """Picklable instrument switches shipped to executor workers.

    Carries the parent's library log level (workers otherwise spawn at
    the default WARNING and their logs silently vanish) and which
    instruments to enable worker-side.
    """

    verbosity: int = logging.WARNING
    trace: bool = False
    detailed_metrics: bool = False
    profile: bool = False

    def session(self) -> Session:
        """The worker's session: fresh instruments and no sinks.

        Events cannot cross the process boundary; the parent publishes
        executor-level progress — including per-task ``estimate``
        outcomes, on delivery — instead, so estimator telemetry has
        exactly one source regardless of pool shape.
        """
        return Session(
            metrics=self.detailed_metrics,
            tracer=self.trace,
            profiler=self.profile,
            verbosity=self.verbosity,
        )


# ---------------------------------------------------------------------- #
# the current session
# ---------------------------------------------------------------------- #


def _install(session: Session) -> None:
    """Make ``session`` current: the only writer of observability module state."""
    global _current
    _current = session
    # the tensor engine's hot path reads the profiler without a call
    _profile_mod.ACTIVE = session.profiler


_install(Session())


def current() -> Session:
    """The installed session (an empty one outside any ``with Session``)."""
    return _current


def configure(metrics: MetricsRegistry | bool | None = True) -> None:
    """Attach (``True``/instance) or detach (``None``) the current session's registry."""
    _current.metrics = _instrument(metrics, MetricsRegistry)


# ---------------------------------------------------------------------- #
# instrumentation-site conveniences
# ---------------------------------------------------------------------- #


def metrics() -> MetricsRegistry | None:
    """The session's run-wide registry, or ``None`` (detailed metrics off)."""
    return _current.metrics


def tracer() -> Tracer | None:
    """The session's tracer, or ``None`` (tracing off)."""
    return _current.tracer


def profiler() -> Profiler | None:
    """The session's profiler, or ``None`` (profiling off)."""
    return _current.profiler


class _Span:
    """One timed region of :func:`span`."""

    __slots__ = ("name", "category", "args", "elapsed", "_session", "_start")

    def __init__(self, name: str, category: str, args: dict) -> None:
        self.name = name
        self.category = category
        self.args = args
        #: seconds between the entry and exit clock readings (set on exit)
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self._session = session = _current
        self._start = start = clock_s()
        if session.profiler is not None:
            session.profiler._phase_enter(self.name, start)
        return self

    def __exit__(self, *_exc) -> None:
        end = clock_s()
        self.elapsed = end - self._start
        session = self._session
        if session.profiler is not None:
            session.profiler._phase_exit(self.name, end)
        if session.tracer is not None:
            session.tracer.complete(self.name, self.category, self._start, end, self.args)


def span(name: str, category: str = "repro", **args) -> _Span:
    """Time the enclosed block once, for the trace and the profile alike.

    Reads :func:`~repro.obs.profile.clock_s` on entry and on exit (also
    when the body raises). From those two readings it appends one
    Chrome-trace complete event if the session traces (``category`` and
    ``args`` ride on it; keep ``args`` small), folds one call into the
    profiler's dotted phase table if the session profiles (nested spans
    form ``outer/inner`` paths), and sets the span's ``elapsed``::

        with obs.span("campaign.forward", p=1e-3) as timed:
            ...
        duration_s = timed.elapsed
    """
    return _Span(name, category, args)


def listening() -> bool:
    """Whether a published event would reach any sink (recorder included)."""
    return bool(_current.sinks)


def publish(kind: str, /, **payload) -> None:
    """Publish a progress event to every sink of the session (none: dropped)."""
    sinks = _current.sinks
    if not sinks:
        return
    event = ProgressEvent(kind=kind, payload=payload)
    for sink in sinks:
        sink.publish(event)


def merge_metrics(snapshot: dict | None) -> None:
    """Merge a metrics snapshot into the session's registry (no-op if none)."""
    registry = _current.metrics
    if registry is not None and snapshot:
        registry.merge(snapshot)


def merge_campaign_metrics(outcome) -> None:
    """Merge a campaign outcome's stamped metrics digest into the registry.

    Accepts a :class:`~repro.core.campaign.CampaignResult`, a
    ``(result, weighted)`` tempered pair, or anything without a
    ``metrics`` attribute (ignored). This is how results computed
    *elsewhere* — in a worker process, or restored from a journal — feed
    the driver's totals exactly once.
    """
    if isinstance(outcome, tuple) and outcome:
        outcome = outcome[0]
    digest = getattr(outcome, "metrics", None)
    merge_metrics(digest if isinstance(digest, dict) else None)

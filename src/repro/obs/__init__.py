"""repro.obs — zero-dependency campaign observability.

The instrumentation spine of the library: a :class:`MetricsRegistry`
(counters/gauges/histograms with snapshot/merge reduction), a
:class:`Tracer` emitting Chrome-trace JSON viewable in Perfetto, and a
pluggable live :class:`ProgressSink` stream — wired through every
execution layer (injector campaigns, worker pools, journal fsyncs, MCMC
chain loops).

This module owns the *process-global* observability state the
instrumentation sites consult:

* :func:`tracer` — always returns a tracer; the default one is disabled,
  so ``with obs.tracer().span(...)`` costs a no-op until tracing is on;
* :func:`metrics` — the attached driver-level registry, or ``None`` when
  detailed metrics are off (campaigns still stamp their own per-campaign
  digest either way);
* :func:`publish` — fire-and-forget progress events, dropped when no
  sink is configured;
* :func:`profiler` — the attached :class:`~repro.obs.profile.Profiler`,
  or ``None`` when profiling is off; :func:`phase` wraps a block in a
  profiler phase (a no-op context when detached).

Worker processes never share the driver's state: the executor captures a
picklable :func:`worker_config` (library verbosity + which instruments
are on) and each worker calls :func:`apply_worker_config` first thing,
replacing any state inherited through ``fork`` with fresh instruments.
Metrics ride home on each result's digest; trace events are drained via
:func:`drain_worker_report` and shipped over the result pipe.

Observability is deliberately *passive*: nothing here touches an RNG
stream, so instrumented campaigns are bit-identical to uninstrumented
ones.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

from repro.obs import flight as _flight_mod
from repro.obs import profile as _profile_mod
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import Profiler, profile_module
from repro.obs.schema import SCHEMA_VERSION, artifact_stamp, artifact_version
from repro.obs.progress import (
    JsonlSink,
    MemorySink,
    ProgressEvent,
    ProgressSink,
    StderrSink,
    TeeSink,
)
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
    "TeeSink",
    "SCHEMA_VERSION",
    "artifact_stamp",
    "artifact_version",
    "WorkerObsConfig",
    "configure",
    "reset",
    "metrics",
    "tracer",
    "progress",
    "profiler",
    "span",
    "phase",
    "publish",
    "merge_metrics",
    "merge_campaign_metrics",
    "worker_config",
    "apply_worker_config",
    "drain_worker_report",
]

#: default of :func:`configure` arguments: leave that instrument as it is
_KEEP = object()

_metrics: MetricsRegistry | None = None
_tracer: Tracer = Tracer(enabled=False)
_progress: ProgressSink | None = None
_profiler: Profiler | None = None


# ---------------------------------------------------------------------- #
# global state
# ---------------------------------------------------------------------- #


def configure(metrics=_KEEP, tracer=_KEEP, progress=_KEEP, profiler=_KEEP) -> None:
    """Install observability instruments for this process.

    Only the arguments you pass change; each accepts ``None`` to detach.
    ``metrics=True`` / ``tracer=True`` / ``profiler=True`` are shorthand
    for fresh instances. The profiler is additionally published to the
    tensor-engine hot path (:data:`repro.obs.profile.ACTIVE`).
    """
    global _metrics, _tracer, _progress, _profiler
    if metrics is not _KEEP:
        _metrics = MetricsRegistry() if metrics is True else metrics
    if tracer is not _KEEP:
        if tracer is True:
            _tracer = Tracer(enabled=True)
        elif tracer is None:
            _tracer = Tracer(enabled=False)
        else:
            _tracer = tracer
    if progress is not _KEEP:
        _progress = progress
    if profiler is not _KEEP:
        _profiler = Profiler() if profiler is True else profiler
        _profile_mod._set_active(_profiler)


def reset() -> None:
    """Back to the defaults: no metrics, disabled tracer, no progress sink."""
    configure(metrics=None, tracer=None, progress=None, profiler=None)


def metrics() -> MetricsRegistry | None:
    """The attached driver-level registry, or ``None`` (detailed metrics off)."""
    return _metrics


def tracer() -> Tracer:
    """The process tracer (a disabled no-op tracer by default)."""
    return _tracer


def progress() -> ProgressSink | None:
    """The attached progress sink, or ``None``."""
    return _progress


def profiler() -> Profiler | None:
    """The attached profiler, or ``None`` (profiling off)."""
    return _profiler


# ---------------------------------------------------------------------- #
# instrumentation-site conveniences
# ---------------------------------------------------------------------- #


def span(name: str, **args):
    """``tracer().span(...)`` shorthand for instrumentation sites."""
    return _tracer.span(name, **args)


def phase(name: str):
    """``profiler().phase(...)`` shorthand; a no-op when profiling is off."""
    if _profiler is None:
        return contextlib.nullcontext()
    return _profiler.phase(name)


def publish(kind: str, /, **payload) -> None:
    """Publish a progress event; silently dropped when no sink is attached.

    Every published event is also offered to the installed flight
    recorder (:mod:`repro.obs.flight`) — with no recorder and no sink
    this is two ``None`` checks.
    """
    recorder = _flight_mod.active()
    if _progress is None and recorder is None:
        return
    event = ProgressEvent(kind=kind, payload=payload)
    if _progress is not None:
        _progress.publish(event)
    if recorder is not None:
        recorder.record_event(event)


def merge_metrics(snapshot: dict | None) -> None:
    """Merge a metrics snapshot into the attached registry (no-op if none)."""
    if _metrics is not None and snapshot:
        _metrics.merge(snapshot)


def merge_campaign_metrics(outcome) -> None:
    """Merge a campaign outcome's stamped metrics digest into the registry.

    Accepts a :class:`~repro.core.campaign.CampaignResult`, a
    ``(result, weighted)`` tempered pair, or anything without a
    ``metrics`` attribute (ignored). This is how results computed
    *elsewhere* — in a worker process, or restored from a journal — feed
    the driver's totals exactly once.
    """
    if _metrics is None:
        return
    if isinstance(outcome, tuple) and outcome:
        outcome = outcome[0]
    digest = getattr(outcome, "metrics", None)
    if isinstance(digest, dict):
        _metrics.merge(digest)


# ---------------------------------------------------------------------- #
# worker propagation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerObsConfig:
    """Picklable observability state shipped to executor workers.

    Carries the driver's library log level (workers otherwise spawn at
    the default WARNING and their logs silently vanish) and which
    instruments to enable worker-side.
    """

    verbosity: int = logging.WARNING
    trace: bool = False
    detailed_metrics: bool = False
    profile: bool = False


def worker_config() -> WorkerObsConfig:
    """Capture this process's observability state for a worker to apply."""
    return WorkerObsConfig(
        verbosity=get_verbosity(),
        trace=_tracer.enabled,
        detailed_metrics=_metrics is not None,
        profile=_profiler is not None,
    )


def apply_worker_config(config: WorkerObsConfig) -> None:
    """Install a worker's observability state (first thing in the worker).

    Replaces any instruments inherited from the driver through ``fork``
    with fresh ones, so a worker never re-ships driver-recorded events,
    and detaches the progress sink (events cannot cross the process
    boundary; the driver publishes executor-level progress — including
    per-task ``estimate`` outcomes, on delivery — instead, so estimator
    telemetry has exactly one source regardless of pool shape).
    """
    set_verbosity(config.verbosity)
    configure(
        metrics=MetricsRegistry() if config.detailed_metrics else None,
        tracer=Tracer(enabled=config.trace),
        progress=None,
        profiler=Profiler() if config.profile else None,
    )


def drain_worker_report() -> dict:
    """Collect worker-side observations to ship back over the result pipe."""
    report: dict = {}
    if _tracer.enabled:
        events = _tracer.drain()
        if events:
            report["trace"] = events
    if _profiler is not None:
        snapshot = _profiler.snapshot()
        if any(snapshot.values()):
            report["profile"] = snapshot
    return report

"""``repro top`` — a live terminal dashboard for a running campaign.

Two sources, one renderer:

* a **status URL** (a campaign started with ``--serve``): each frame
  polls ``/status`` (and opportunistically ``/metrics``) over stdlib
  ``urllib``;
* a **progress JSONL file** (a campaign started with
  ``--progress PATH``): each frame re-reads the file and replays every
  event through a :class:`~repro.obs.server.StatusTracker` — the same
  fold the live server uses, so both sources render identically.

The dashboard is plain ANSI (clear + home between frames), no curses —
it degrades to a repeated printout on dumb terminals and under test
capture. Rendering is pure (:func:`render_dashboard` takes a status
dict, returns a string), so tests never need a TTY or a sleep.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Callable

from repro.obs.progress import ProgressEvent
from repro.obs.server import StatusTracker
from repro.utils.logging import get_logger

__all__ = ["render_dashboard", "summarize_metrics", "status_source", "run_top"]

_LOGGER = get_logger("obs.top")

_CLEAR = "\x1b[2J\x1b[H"


def _fmt_duration(seconds) -> str:
    if seconds is None:
        return "--"
    seconds = float(seconds)
    if not math.isfinite(seconds):
        return "n/a"
    if seconds < 0:
        return "--"
    if seconds < 100:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m" if hours else f"{minutes}m{secs:02d}s"


def _fmt_value(value) -> str:
    """A gauge/sample value for display; non-finite renders as ``n/a``."""
    if value is None:
        return "n/a"
    value = float(value)
    if not math.isfinite(value):
        return "n/a"
    return f"{value:.4g}"


def _bar(done: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(width * min(1.0, done / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 16) -> str:
    """Render a numeric series as unicode block characters (newest last)."""
    finite = [float(v) for v in values if v is not None and math.isfinite(float(v))]
    if not finite:
        return ""
    if len(finite) > width:
        # resample to the display width, keeping first and last
        idx = [round(i * (len(finite) - 1) / (width - 1)) for i in range(width)]
        finite = [finite[i] for i in idx]
    lo, hi = min(finite), max(finite)
    span = (hi - lo) or 1.0
    return "".join(_SPARK_CHARS[int((v - lo) / span * (len(_SPARK_CHARS) - 1))] for v in finite)


def _histogram_quantile(bounds, cumulative, q: float) -> float | None:
    """Prometheus-style quantile from cumulative bucket counts.

    Linear interpolation inside the bucket containing the target rank;
    the overflow bucket yields its lower (highest finite) bound, the
    honest answer available without raw samples.
    """
    if not cumulative or cumulative[-1] <= 0:
        return None
    rank = q * cumulative[-1]
    previous_bound, previous_count = 0.0, 0.0
    for bound, count in zip(bounds, cumulative):
        if count >= rank:
            if not math.isfinite(bound) or count == previous_count:
                return float(bound) if math.isfinite(bound) else previous_bound
            fraction = (rank - previous_count) / (count - previous_count)
            return float(previous_bound + (bound - previous_bound) * fraction)
        previous_bound, previous_count = float(bound), float(count)
    return previous_bound


def summarize_metrics(text: str) -> dict:
    """Digest an exposition payload into display-ready summaries.

    Histograms become ``{count, p50, p90, max, overflow}`` quantile
    summaries (satellite of the raw-bucket display: nobody reads 12
    ``le=`` lines on a dashboard); gauges and counters keep their last
    sample value. Labelled per-stratum estimator families are skipped —
    the estimator panel renders those with full fidelity.
    """
    from repro.obs.openmetrics import parse_samples, validate_openmetrics

    families = validate_openmetrics(text)
    samples = parse_samples(text)
    summary: dict = {"gauges": {}, "counters": {}, "histograms": {}}
    for family in sorted(families):
        kind = families[family]
        if "stratum" in family:
            continue
        if kind == "gauge" and family in samples:
            summary["gauges"][family] = samples[family]
        elif kind == "counter" and f"{family}_total" in samples:
            summary["counters"][family] = samples[f"{family}_total"]
        elif kind == "histogram":
            prefix = f'{family}_bucket{{le="'
            buckets = []
            for key, value in samples.items():
                if key.startswith(prefix):
                    le = key[len(prefix) : -2]
                    buckets.append((math.inf if le == "+Inf" else float(le), float(value)))
            buckets.sort(key=lambda item: item[0])
            if not buckets or buckets[-1][1] <= 0:
                continue
            bounds = [b for b, _ in buckets]
            cumulative = [c for _, c in buckets]
            finite_top = max((c for b, c in buckets if math.isfinite(b)), default=0.0)
            summary["histograms"][family] = {
                "count": samples.get(f"{family}_count", cumulative[-1]),
                "p50": _histogram_quantile(bounds, cumulative, 0.5),
                "p90": _histogram_quantile(bounds, cumulative, 0.9),
                "max": _histogram_quantile(bounds, cumulative, 1.0),
                "overflow": cumulative[-1] > finite_top,
            }
    return summary


def _metrics_lines(summary: dict) -> list[str]:
    """Dashboard lines for a :func:`summarize_metrics` digest."""
    lines = []
    for family, doc in sorted(summary.get("histograms", {}).items()):
        top = _fmt_value(doc["max"]) + ("+" if doc["overflow"] else "")
        lines.append(
            f"    {family:<40} n={int(doc['count'])}  "
            f"p50={_fmt_value(doc['p50'])}  p90={_fmt_value(doc['p90'])}  max={top}"
        )
    for family, value in sorted(summary.get("gauges", {}).items()):
        lines.append(f"    {family:<40} {_fmt_value(value)}")
    for family, value in sorted(summary.get("counters", {}).items()):
        lines.append(f"    {family:<40} {_fmt_value(value)}")
    return lines


#: strata shown in the convergence panel (worst half-width first)
ESTIMATOR_ROWS = 8


def _estimator_lines(document: dict) -> list[str]:
    """Dashboard lines for an ``/estimates`` document (worst-first)."""
    strata = document.get("strata") or []
    if not strata:
        return []
    target = document.get("target") or {}
    overall = document.get("overall") or {}
    header = (
        f"  estimate  mean {_fmt_value(overall.get('mean'))}  "
        f"±{_fmt_value(overall.get('halfwidth'))} "
        f"@ {float(document.get('mass', 0.95)):.0%}"
    )
    if target:
        header += f"    target ±{target['halfwidth']:g}"
    converged = document.get("converged")
    if converged is not None:
        header += f"    converged {converged['converged']}/{converged['total']}"
    crossed = overall.get("crossed_at")
    if crossed is not None:
        header += f"  (campaign crossed at task {crossed})"
    lines = [header, "    stratum (layer|bitfield|p)           mean      ±ci       trend"]
    ordered = sorted(strata, key=lambda doc: -float(doc.get("halfwidth") or 0.0))
    for doc in ordered[:ESTIMATOR_ROWS]:
        label = f"{doc['layer']}|{doc['bitfield']}|{doc['p']:.4g}"
        spark = _sparkline([point["halfwidth"] for point in doc.get("history") or []])
        mark = ""
        if doc.get("converged"):
            mark = f"  ok@{doc['crossed_at']}" if doc.get("crossed_at") is not None else "  ok"
        elif doc.get("converged") is False:
            mark = "  …"
        lines.append(
            f"    {label:<36} {_fmt_value(doc.get('mean')):<9} "
            f"{_fmt_value(doc.get('halfwidth')):<9} {spark}{mark}"
        )
    if len(ordered) > ESTIMATOR_ROWS:
        lines.append(f"    … {len(ordered) - ESTIMATOR_ROWS} tighter strata not shown")
    return lines


def render_dashboard(status: dict, source: str = "") -> str:
    """Render one dashboard frame from a ``/status`` document."""
    tasks = status.get("tasks") or {}
    total = int(tasks.get("total") or 0)
    completed = int(tasks.get("completed") or 0)
    failed = int(tasks.get("failed") or 0)
    running = status.get("running")
    state = "RUNNING" if running else ("idle" if running is not None else "?")
    lines = [
        f"repro top — {source}" if source else "repro top",
        "",
        f"  state     {state}    tasks {completed + failed}/{total} "
        f"{_bar(completed + failed, total)}",
        f"  completed {completed}    failed {failed}    "
        f"retries {tasks.get('retries', 0)} {tasks.get('retries_by_cause') or {}}",
        f"  rate      {status.get('rate_per_s') or 0:.2f} tasks/s    "
        f"eta {_fmt_duration(status.get('eta_s'))}    "
        f"heartbeats {status.get('heartbeats', 0)}",
    ]
    journal = status.get("journal") or {}
    if journal.get("records") is not None:
        lines.append(
            f"  journal   {journal['records']} record(s)"
            + (f"    quarantined {journal['quarantined']}" if journal.get("quarantined") else "")
        )
    chaos = status.get("chaos_fired") or {}
    if chaos:
        fired = ", ".join(f"{site}={count}" for site, count in sorted(chaos.items()))
        lines.append(f"  chaos     {fired}")
    sweep = status.get("sweep") or {}
    if sweep.get("points_done"):
        last = sweep.get("last") or {}
        lines.append(
            f"  sweep     {sweep['points_done']} point(s) done"
            + (f"    last p={last.get('p'):.3g}" if last.get("p") is not None else "")
        )
    adaptive = status.get("adaptive")
    if adaptive:
        lines.append(
            f"  adaptive  steps={adaptive.get('steps')} r_hat={adaptive.get('r_hat')} "
            f"ess={adaptive.get('ess')}"
        )
    estimator = status.get("estimator")
    if estimator and estimator.get("tasks"):
        lines.append("")
        lines.extend(_estimator_lines(estimator))
    workers = status.get("workers") or {}
    lines.append("")
    if workers:
        lines.append("  workers (running tasks):")
        lines.append("    task   pid       attempt  elapsed   beat age")
        for task in sorted(workers, key=lambda t: int(t) if str(t).isdigit() else 0):
            beat = workers[task]
            lines.append(
                f"    {task:<6} {str(beat.get('pid')):<9} {str(beat.get('attempt')):<8} "
                f"{_fmt_duration(beat.get('elapsed_s')):<9} "
                f"{_fmt_duration(beat.get('heartbeat_age_s'))}"
            )
    else:
        lines.append("  workers: none beating")
    last_complete = status.get("last_complete")
    if last_complete:
        lines.append("")
        lines.append(
            f"  done: {last_complete.get('tasks')} task(s) in "
            f"{_fmt_duration(last_complete.get('duration_s'))}, "
            f"failed {last_complete.get('failed', 0)}"
        )
    server = status.get("server")
    if server:
        lines.append("")
        lines.append(
            f"  server up {_fmt_duration(server.get('uptime_s'))}    "
            f"sse subscribers {server.get('sse_subscribers', 0)}"
        )
    metrics_summary = status.get("metrics_summary")
    if metrics_summary and any(metrics_summary.values()):
        lines.append("")
        lines.append("  metrics (histograms as p50/p90/max):")
        lines.extend(_metrics_lines(metrics_summary))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# sources
# ---------------------------------------------------------------------- #


def _poll_url(url: str) -> dict:
    import urllib.request

    base = url.rstrip("/")
    with urllib.request.urlopen(base + "/status", timeout=5.0) as response:
        status = json.loads(response.read().decode("utf-8"))
    # opportunistic: a server without detailed metrics still renders fine
    try:
        with urllib.request.urlopen(base + "/metrics", timeout=5.0) as response:
            status["metrics_summary"] = summarize_metrics(response.read().decode("utf-8"))
    except (OSError, ValueError):
        pass
    return status


def _replay_jsonl(path: str) -> dict:
    tracker = StatusTracker()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a live file; next frame will see it whole
            kind = record.pop("kind", None)
            if not kind or kind == "progress.header":
                continue
            wall_time = record.pop("wall_time", 0.0) or 0.0
            # the envelope pid stays in the payload: worker-carrying events
            # (heartbeats) read it from there
            event = ProgressEvent(
                kind=kind, payload=record, wall_time=wall_time, pid=record.get("pid", 0) or 0
            )
            tracker.emit(event)
    return tracker.status()


def status_source(source: str) -> Callable[[], dict]:
    """A zero-argument poller for ``source`` (status URL or progress JSONL)."""
    if source.startswith(("http://", "https://")):
        return lambda: _poll_url(source)
    return lambda: _replay_jsonl(source)


def run_top(
    source: str,
    interval_s: float = 1.0,
    frames: int | None = None,
    stream=None,
    clear: bool = True,
) -> int:
    """Poll ``source`` and render the dashboard until interrupted.

    ``frames`` bounds the number of refreshes (``None`` = until Ctrl-C);
    returns a process exit code. Poll failures render an error frame and
    keep trying — a campaign restarting between frames is normal.
    """
    out = stream if stream is not None else sys.stdout
    rendered = 0
    failures = 0
    reached = False  # a source that never answered is an error, not a wait
    poll = status_source(source)
    try:
        while frames is None or rendered < frames:
            if rendered:
                time.sleep(interval_s)
            try:
                status = poll()
            except (OSError, ValueError) as exc:
                failures += 1
                frame = f"repro top — {source}\n\n  unreachable: {exc}\n"
                if failures > 5 and not reached:
                    out.write(frame)
                    return 1
            else:
                failures = 0
                reached = True
                frame = render_dashboard(status, source=source)
            out.write((_CLEAR if clear else "") + frame)
            out.flush()
            rendered += 1
    except KeyboardInterrupt:
        pass
    return 0

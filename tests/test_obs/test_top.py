"""``repro top``: the pure renderer, JSONL replay, and the poll loop.

The dashboard renders from a ``/status`` document, which comes from the
same :class:`StatusTracker` fold whether the source is a live server or
a replayed ``progress.jsonl`` — so the tests drive both paths through
one renderer and assert on plain text.
"""

import io
import json

import repro.obs as obs
from repro.obs import JsonlSink
from repro.obs.server import StatusServer, StatusTracker
from repro.obs.top import (
    _fmt_duration,
    _histogram_quantile,
    _replay_jsonl,
    render_dashboard,
    run_top,
    status_source,
    summarize_metrics,
)


def _status(**overrides):
    base = {
        "running": True,
        "tasks": {
            "total": 10,
            "completed": 4,
            "failed": 1,
            "remaining": 5,
            "retries": 2,
            "retries_by_cause": {"crash": 2},
        },
        "rate_per_s": 2.5,
        "eta_s": 2.0,
        "heartbeats": 7,
        "workers": {"3": {"pid": 123, "attempt": 1, "elapsed_s": 1.5, "heartbeat_age_s": 0.2}},
        "journal": {"records": 5, "quarantined": 1},
        "chaos_fired": {"worker.sigkill": 2},
        "sweep": {"points_done": 3, "last": {"p": 1e-3}},
        "adaptive": None,
        "last_complete": None,
        "events_seen": 42,
    }
    base.update(overrides)
    return base


class TestRenderDashboard:
    def test_frame_carries_the_load_bearing_numbers(self):
        frame = render_dashboard(_status(), source="http://localhost:1")
        assert "repro top — http://localhost:1" in frame
        assert "tasks 5/10" in frame
        assert "retries 2 {'crash': 2}" in frame
        assert "rate      2.50 tasks/s" in frame
        assert "eta 2.0s" in frame
        assert "journal   5 record(s)" in frame and "quarantined 1" in frame
        assert "chaos     worker.sigkill=2" in frame
        assert "sweep     3 point(s) done" in frame
        assert "123" in frame  # the worker pid row

    def test_empty_status_renders_without_error(self):
        frame = render_dashboard({})
        assert "workers: none beating" in frame
        assert "tasks 0/0" in frame

    def test_completed_run_shows_the_summary_line(self):
        frame = render_dashboard(
            _status(
                running=False,
                workers={},
                last_complete={"tasks": 10, "duration_s": 3.0, "failed": 1},
            )
        )
        assert "idle" in frame
        assert "done: 10 task(s) in 3.0s, failed 1" in frame


def _estimator_doc(**overrides):
    from repro.obs.estimator import EstimatorTracker, StoppingTarget
    from repro.obs.progress import ProgressEvent

    tracker = EstimatorTracker(target=StoppingTarget(0.12))
    tracker.emit(
        ProgressEvent(
            kind="estimate",
            payload={
                "task": 0, "layer": "fc1", "bitfield": "all", "p": 1e-3,
                "trials": 200, "degraded_trials": list(range(30)),
            },
        )
    )
    tracker.emit(
        ProgressEvent(
            kind="estimate",
            payload={
                "task": 1, "layer": "fc2", "bitfield": "sign", "p": 1e-2,
                "trials": 6, "degraded_trials": [0],
            },
        )
    )
    doc = tracker.estimates()
    doc.update(overrides)
    return doc


class TestEstimatorPanel:
    def test_panel_sorts_worst_first_with_sparklines(self):
        frame = render_dashboard(_status(estimator=_estimator_doc()))
        lines = frame.splitlines()
        (header,) = [line for line in lines if line.strip().startswith("estimate")]
        assert "target ±0.12" in header and "converged 1/2" in header
        rows = [line for line in lines if "|" in line and "stratum" not in line]
        # the wide 6-trial stratum outranks the converged 200-trial one
        assert "fc2|sign|0.01" in rows[0] and "…" in rows[0]
        assert "fc1|all|0.001" in rows[1] and "ok@0" in rows[1]
        assert any(ch in rows[1] for ch in "▁▂▃▄▅▆▇█")

    def test_campaign_crossing_stamp_shown_when_all_converge(self):
        doc = _estimator_doc()
        doc["converged"] = {"converged": 2, "total": 2, "fraction": 1.0}
        doc["overall"]["crossed_at"] = 1
        frame = render_dashboard(_status(estimator=doc))
        assert "campaign crossed at task 1" in frame

    def test_empty_estimator_document_renders_nothing(self):
        frame = render_dashboard(_status(estimator={"tasks": 0, "strata": []}))
        assert "estimate" not in frame


class TestMetricsPanel:
    def test_histograms_render_as_quantile_summaries(self):
        from repro.obs.openmetrics import render_openmetrics

        text = render_openmetrics(
            {
                "histograms": {
                    "campaign.duration_s": {
                        "bounds": [0.1, 1.0, 5.0],
                        "counts": [2, 6, 1, 1],
                        "sum": 7.5,
                        "count": 10,
                    }
                },
                "gauges": {"executor.gap_s": 0.25},
                "counters": {"evaluations": 42},
            }
        )
        summary = summarize_metrics(text)
        hist = summary["histograms"]["repro_campaign_duration_s"]
        assert hist["count"] == 10
        assert 0.1 <= hist["p50"] <= 1.0
        assert hist["p90"] > hist["p50"]
        assert hist["overflow"] is True  # one observation beyond the last bound
        frame = render_dashboard(_status(metrics_summary=summary))
        assert "p50" in frame and "raw" not in frame
        assert "le=" not in frame  # buckets never leak into the dashboard
        assert "repro_evaluations" in frame and "repro_executor_gap_s" in frame

    def test_stratum_families_left_to_the_estimator_panel(self):
        from repro.obs.openmetrics import render_openmetrics

        text = render_openmetrics(
            None,
            families=[
                {"name": "stratum_mean", "type": "gauge", "samples": [({"layer": "x"}, 1.0)]},
                {"name": "ci_halfwidth", "type": "gauge", "samples": [({}, 0.1)]},
            ],
        )
        summary = summarize_metrics(text)
        assert "repro_stratum_mean" not in summary["gauges"]
        assert summary["gauges"]["repro_ci_halfwidth"] == 0.1

    def test_non_finite_gauges_display_na(self):
        summary = {"gauges": {"repro_eta": float("nan")}, "counters": {}, "histograms": {}}
        frame = render_dashboard(_status(metrics_summary=summary))
        assert "n/a" in frame and "nan" not in frame

    def test_quantile_interpolation(self):
        # 10 observations: 2 in (0, 1], 8 in (1, 2]
        bounds = [1.0, 2.0, float("inf")]
        cumulative = [2.0, 10.0, 10.0]
        assert _histogram_quantile(bounds, cumulative, 0.2) == 1.0
        assert _histogram_quantile(bounds, cumulative, 0.6) == 1.5
        assert _histogram_quantile(bounds, cumulative, 1.0) == 2.0
        assert _histogram_quantile(bounds, cumulative, 0.5) is not None
        assert _histogram_quantile([], [], 0.5) is None

    def test_nonfinite_duration_renders_na(self):
        assert _fmt_duration(float("nan")) == "n/a"
        assert _fmt_duration(float("inf")) == "n/a"
        assert _fmt_duration(None) == "--"
        assert _fmt_duration(3.0) == "3.0s"


class TestReplay:
    def test_replay_folds_the_jsonl_into_a_status(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with obs.Session(sinks=[JsonlSink(path)]):
            obs.publish("executor.start", tasks=3, workers=2)
            obs.publish("executor.heartbeat", task=0, pid=111, attempt=1, elapsed_s=0.5)
            obs.publish("executor.task_done", task=1)
            obs.publish("journal.append", key="k", records=1)
            obs.publish("chaos.fired", site="pipe.drop")

        status = _replay_jsonl(path)
        assert status["tasks"]["total"] == 3
        assert status["tasks"]["completed"] == 1
        assert status["journal"]["records"] == 1
        assert status["chaos_fired"] == {"pipe.drop": 1}
        # JSONL serialisation lets the envelope pid win (payload keys can
        # never clobber the envelope), so replay reports the publisher's
        # pid — present, not None
        import os

        assert status["workers"]["0"]["pid"] == os.getpid()

    def test_replay_skips_header_and_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"kind": "progress.header", "schema_version": 1}) + "\n"
            + json.dumps({"kind": "executor.start", "tasks": 2, "workers": 1, "wall_time": 1.0}) + "\n"
            + '{"kind": "executor.task_done", "ta',  # torn mid-write
            encoding="utf-8",
        )
        status = _replay_jsonl(str(path))
        assert status["tasks"]["total"] == 2
        assert status["tasks"]["completed"] == 0
        assert status["events_seen"] == 1

    def test_replay_folds_estimate_events_like_the_live_server(self, tmp_path):
        from repro.obs.estimator import EstimatorTracker

        path = str(tmp_path / "progress.jsonl")
        with obs.Session(sinks=[JsonlSink(path)]):
            payload = {
                "task": 0, "layer": "all", "bitfield": "all", "p": 1e-2,
                "trials": 50, "degraded_trials": [3, 7],
            }
            obs.publish("estimate", **payload)

        status = _replay_jsonl(path)
        live = EstimatorTracker()
        from repro.obs.progress import ProgressEvent

        live.emit(ProgressEvent(kind="estimate", payload=payload))
        assert status["estimator"] == live.estimates()
        frame = render_dashboard(status)
        assert "all|all|0.01" in frame


class TestRunTop:
    def test_one_frame_from_a_jsonl_file(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        with obs.Session(sinks=[JsonlSink(path)]):
            obs.publish("executor.start", tasks=2, workers=1)
            obs.publish("executor.task_done", task=0)

        out = io.StringIO()
        code = run_top(path, interval_s=0.01, frames=1, stream=out, clear=False)
        assert code == 0
        assert "tasks 1/2" in out.getvalue()

    def test_one_frame_from_a_live_server(self):
        tracker = StatusTracker()
        server = StatusServer(port=0, tracker=tracker).start()
        try:
            out = io.StringIO()
            code = run_top(server.url, interval_s=0.01, frames=1, stream=out, clear=False)
            assert code == 0
            assert "repro top" in out.getvalue()
            assert "server up" in out.getvalue()
        finally:
            server.stop()

    def test_unreachable_source_fails_after_retries(self):
        out = io.StringIO()
        code = run_top(
            "http://127.0.0.1:9/", interval_s=0.0, frames=None, stream=out, clear=False
        )
        assert code == 1
        assert "unreachable" in out.getvalue()

    def test_source_dispatch(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("", encoding="utf-8")
        status = status_source(str(path))()  # file source: replays the JSONL
        assert status["tasks"]["total"] == 0 and status["events_seen"] == 0

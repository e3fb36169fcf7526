"""Trace events from obs.span: recording, nesting, Chrome-trace export, worker merge."""

import json
import os
import threading

import pytest

import repro.obs as obs
from repro.obs import Tracer


@pytest.fixture()
def tracer():
    """A tracer attached to the current session."""
    with obs.Session(tracer=True) as session:
        yield session.tracer


class TestRecording:
    def test_untraced_session_has_no_tracer(self):
        with obs.Session() as session:
            with obs.span("campaign.forward", p=1e-3) as timed:
                pass
        assert session.tracer is None and obs.tracer() is None
        assert timed.elapsed >= 0.0

    def test_span_records_complete_event(self, tracer):
        with obs.span("campaign.forward", category="campaign", p=1e-3) as timed:
            pass
        (event,) = tracer.events
        assert event["name"] == "campaign.forward"
        assert event["cat"] == "campaign"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["dur"] / 1e6 == pytest.approx(timed.elapsed, abs=1e-9)
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()
        assert event["args"] == {"p": 1e-3}

    def test_span_args_are_json_safe(self, tracer):
        with obs.span("x", spec=object(), n=3, label=None):
            pass
        args = tracer.events[0]["args"]
        assert isinstance(args["spec"], str)  # repr'd, not a live object
        assert args["n"] == 3 and args["label"] is None

    def test_spans_nest(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.events  # inner closes (and records) first
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_span_recorded_even_when_body_raises(self, tracer):
        with pytest.raises(RuntimeError):
            with obs.span("doomed") as timed:
                raise RuntimeError("boom")
        assert len(tracer) == 1
        assert tracer.events[0]["dur"] / 1e6 == pytest.approx(timed.elapsed, abs=1e-9)


class TestReduction:
    def test_drain_empties_the_tracer(self, tracer):
        with obs.span("a"):
            pass
        events = tracer.drain()
        assert len(events) == 1 and len(tracer) == 0

    def test_merge_folds_worker_events_in(self):
        with obs.Session(tracer=True) as worker:
            with obs.span("worker.build"):
                pass
        driver = Tracer()
        driver.merge(worker.tracer.drain())
        driver.merge(None)  # tolerated
        assert [e["name"] for e in driver.events] == ["worker.build"]


class TestExport:
    def test_export_is_chrome_trace_shaped_and_time_sorted(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        exported = tracer.export()
        names = [e["name"] for e in exported["traceEvents"]]
        assert names == ["outer", "inner"]  # sorted by ts, not close order
        assert exported["displayTimeUnit"] == "ms"

    def test_save_writes_plain_loadable_json(self, tracer, tmp_path):
        with obs.span("campaign.forward", p=float("nan")):
            pass
        path = str(tmp_path / "trace.json")
        tracer.save(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        # Perfetto compatibility: no checksum wrapper, NaN args sanitised
        assert "__checksum__" not in payload
        assert "traceEvents" in payload
        assert payload["traceEvents"][0]["args"]["p"] is None

"""Progress events and sinks: envelope integrity, delivery, containment."""

import io
import json

import repro.obs as obs
from repro.obs import JsonlSink, MemorySink, ProgressEvent, ProgressSink, StderrSink


class TestProgressEvent:
    def test_to_dict_carries_envelope_and_payload(self):
        event = ProgressEvent(kind="sweep.point", payload={"p": 1e-3, "mean": 0.2})
        record = event.to_dict()
        assert record["kind"] == "sweep.point"
        assert record["p"] == 1e-3
        assert record["pid"] > 0 and record["wall_time"] > 0

    def test_payload_cannot_clobber_the_envelope(self):
        event = ProgressEvent(kind="executor.task_done", payload={"kind": "forward"})
        assert event.to_dict()["kind"] == "executor.task_done"

    def test_nonfinite_payload_values_sanitised(self):
        record = ProgressEvent(kind="x", payload={"r_hat": float("nan")}).to_dict()
        assert record["r_hat"] is None

    def test_render_is_one_line(self):
        event = ProgressEvent(kind="adaptive.progress", payload={"p": 0.01, "steps": 50})
        line = event.render()
        assert line.startswith("[adaptive.progress]")
        assert "steps=50" in line and "\n" not in line


class TestSinks:
    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.publish(ProgressEvent(kind="a"))
        sink.publish(ProgressEvent(kind="b"))
        assert len(sink.events) == 2
        assert [e.kind for e in sink.of_kind("a")] == ["a"]

    def test_jsonl_sink_writes_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        sink.publish(ProgressEvent(kind="sweep.point", payload={"p": 1e-3}))
        sink.publish(ProgressEvent(kind="sweep.point", payload={"p": 1e-2}))
        sink.close()
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        # a fresh file opens with a one-line version header, then events
        assert records[0]["kind"] == "progress.header"
        assert records[0]["schema_version"] >= 1
        assert [r["p"] for r in records[1:]] == [1e-3, 1e-2]

    def test_jsonl_sink_appends_without_second_header(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        first = JsonlSink(path)
        first.publish(ProgressEvent(kind="a"))
        first.close()
        second = JsonlSink(path)
        second.publish(ProgressEvent(kind="b"))
        second.close()
        with open(path, encoding="utf-8") as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert kinds == ["progress.header", "a", "b"]

    def test_stderr_sink_renders_to_stream(self):
        stream = io.StringIO()
        StderrSink(stream=stream).publish(ProgressEvent(kind="x", payload={"n": 1}))
        assert stream.getvalue() == "[x] n=1\n"

    def test_session_fans_out_and_closes_its_sinks(self, tmp_path):
        memory = MemorySink()
        jsonl = JsonlSink(str(tmp_path / "e.jsonl"))
        with obs.Session(sinks=[memory, jsonl]):
            obs.publish("x")
        assert len(memory.events) == 1
        assert jsonl._handle.closed

    def test_failing_sink_is_contained(self):
        class Doomed(ProgressSink):
            def emit(self, event):
                raise OSError("disk gone")

        Doomed().publish(ProgressEvent(kind="x"))  # must not raise
        memory = MemorySink()
        with obs.Session(sinks=[Doomed(), memory]):
            obs.publish("x")  # the failure stays with its sink
        assert len(memory.events) == 1


class TestPublish:
    def test_publish_without_sink_is_dropped(self):
        obs.publish("x", n=1)  # no sink attached: silently a no-op

    def test_publish_reaches_the_attached_sink(self):
        sink = MemorySink()
        with obs.Session(sinks=[sink]):
            assert obs.listening()
            obs.publish("executor.heartbeat", task=0, elapsed_s=1.5)
        assert not obs.listening()
        (event,) = sink.events
        assert event.kind == "executor.heartbeat"
        assert event.payload == {"task": 0, "elapsed_s": 1.5}

    def test_publish_accepts_kind_as_payload_key(self):
        sink = MemorySink()
        with obs.Session(sinks=[sink]):
            obs.publish("executor.task_done", kind="forward")  # positional-only `kind`
        assert sink.events[0].to_dict()["kind"] == "executor.task_done"

"""The artifact version stamp: emitted everywhere, tolerated when absent.

Every obs-emitted artifact (metrics digest, trace export, progress JSONL
header, postmortem bundle) carries ``schema_version`` + ``repro_version``;
every loader accepts a stamp-less artifact as v0, and the postmortem
loader rejects one from a newer schema.
"""

import json

import pytest

import repro
import repro.obs as obs
from repro.obs import ProgressEvent
from repro.obs.flight import FlightRecorder, PostmortemError, load_postmortem
from repro.obs.schema import SCHEMA_VERSION, artifact_stamp, artifact_version
from repro.utils.persist import atomic_write_json


class TestStamp:
    def test_stamp_fields(self):
        stamp = artifact_stamp()
        assert stamp == {
            "schema_version": SCHEMA_VERSION,
            "repro_version": repro.__version__,
        }

    def test_version_of_stamped_payload(self):
        assert artifact_version(artifact_stamp()) == SCHEMA_VERSION

    def test_missing_field_is_v0(self):
        assert artifact_version({}) == 0
        assert artifact_version(None) == 0

    def test_garbage_field_is_v0(self):
        assert artifact_version({"schema_version": "not a number"}) == 0
        assert artifact_version({"schema_version": None}) == 0

    def test_numeric_strings_accepted(self):
        assert artifact_version({"schema_version": "2"}) == 2


class TestEmitters:
    def test_trace_export_carries_the_stamp(self):
        with obs.Session(tracer=True) as session:
            with obs.span("unit.span"):
                pass
        document = session.tracer.export()
        assert document["otherData"]["schema_version"] == SCHEMA_VERSION
        assert document["otherData"]["repro_version"] == repro.__version__

    def test_progress_jsonl_header_carries_the_stamp(self, tmp_path):
        from repro.obs import JsonlSink

        path = str(tmp_path / "progress.jsonl")
        sink = JsonlSink(path)
        sink.publish(ProgressEvent(kind="x"))
        sink.close()
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["kind"] == "progress.header"
        assert artifact_version(header) == SCHEMA_VERSION
        assert header["repro_version"] == repro.__version__

    def test_status_document_carries_the_stamp(self):
        from repro.obs.server import StatusTracker

        status = StatusTracker().status()
        assert artifact_version(status) == SCHEMA_VERSION


def _write_bundle(path, **stamp):
    """A real recorder bundle, re-stamped with ``stamp`` (``None`` drops a field)."""
    bundle = FlightRecorder().bundle("unit")
    for key, value in stamp.items():
        if value is None:
            del bundle[key]
        else:
            bundle[key] = value
    atomic_write_json(path, bundle)
    return path


class TestLoaders:
    def test_postmortem_loader_accepts_stampless_v0_bundle(self, tmp_path):
        path = _write_bundle(str(tmp_path / "v0.json"), schema_version=None, repro_version=None)
        bundle = load_postmortem(path)  # v0: accepted
        assert bundle["schema_version"] == 0
        assert bundle["repro_version"] is None

    def test_postmortem_loader_rejects_future_schema(self, tmp_path):
        path = _write_bundle(str(tmp_path / "future.json"), schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(PostmortemError, match="newer than"):
            load_postmortem(path)

"""The artifact version stamp: emitted everywhere, tolerated when absent.

Every obs-emitted artifact (metrics digest, trace export, progress JSONL
header, bench record, postmortem bundle) carries ``schema_version`` +
``repro_version``; every loader accepts a stamp-less artifact as v0.
"""

import json

import pytest

import repro
import repro.obs as obs
from repro.bench.harness import CaseStats, make_record, validate_bench_record
from repro.obs import ProgressEvent
from repro.obs.schema import SCHEMA_VERSION, artifact_stamp, artifact_version


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

    def test_bench_record_carries_the_stamp(self):
        record = make_record(
            "unit",
            {"case": CaseStats.from_samples([0.1, 0.2, 0.3], warmup=1)},
            quick=True,
            seed=0,
        )
        assert artifact_version(record) == SCHEMA_VERSION
        validate_bench_record(record)


class TestLoaders:
    def test_bench_loader_accepts_stampless_v0_record(self):
        record = make_record(
            "unit",
            {"case": CaseStats.from_samples([0.1], warmup=0)},
            quick=True,
            seed=0,
        )
        del record["schema_version"]
        del record["repro_version"]
        validate_bench_record(record)  # v0: accepted

    def test_bench_loader_rejects_future_schema(self):
        record = make_record(
            "unit",
            {"case": CaseStats.from_samples([0.1], warmup=0)},
            quick=True,
            seed=0,
        )
        record["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than"):
            validate_bench_record(record)

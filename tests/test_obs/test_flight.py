"""Flight recorder: bounded ring, postmortem bundles, executor hooks.

The recorder is the "what happened just before it broke" instrument, so
the tests pin three guarantees: the ring stays bounded (with honest drop
accounting), a dumped bundle round-trips through ``load_postmortem``
(including stamp-less v0 bundles), and the executor auto-dumps exactly
when a run aborts or degrades.
"""

import json
import os
import signal

import pytest

import repro.obs as obs
from repro.exec import (
    CampaignExecutionError,
    ForwardSpec,
    InjectorRecipe,
    ParallelCampaignExecutor,
)
from repro.faults import TargetSpec
from repro.obs import flight
from repro.obs.progress import ProgressEvent
from repro.utils.persist import atomic_write_json


def _always_crash_builder():
    os._exit(5)


def _record(recorder, kind: str, **payload) -> None:
    recorder.publish(ProgressEvent(kind=kind, payload=payload))


class TestRing:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = flight.FlightRecorder(capacity=3)
        for index in range(5):
            _record(recorder, "tick", index=index)
        events = recorder.events()
        assert [e["index"] for e in events] == [2, 3, 4]  # oldest fell off
        assert recorder.recorded == 5
        assert recorder.dropped == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            flight.FlightRecorder(capacity=0)

    def test_record_event_keeps_the_envelope(self):
        recorder = flight.FlightRecorder()
        recorder.emit(ProgressEvent(kind="chaos.fired", payload={"site": "pipe.drop"}))
        (event,) = recorder.events()
        assert event["kind"] == "chaos.fired"
        assert event["site"] == "pipe.drop"
        assert event["pid"] == os.getpid()

    def test_installed_recorder_captures_published_events(self):
        recorder = flight.FlightRecorder()
        with obs.Session(recorder=recorder):
            obs.publish("executor.retry", task=1, cause="crash")
        obs.publish("after.exit")  # the recorder left with its session
        assert [event["kind"] for event in recorder.events()] == ["executor.retry"]

    def test_recorder_alone_hears_chain_progress(self, make_injector):
        """A recorder is a listener: chain loops publish to it without any other sink."""
        from repro.exec import McmcSpec
        from repro.mcmc.metropolis import PROGRESS_EVERY

        recorder = flight.FlightRecorder()
        with obs.Session(recorder=recorder):
            make_injector().run(McmcSpec(p=1e-2, chains=2, steps=PROGRESS_EVERY))
        assert "chain.progress" in {event["kind"] for event in recorder.events()}


class TestBundles:
    def test_dump_roundtrips_through_load_postmortem(self, tmp_path):
        recorder = flight.FlightRecorder(capacity=8, autodump_dir=str(tmp_path))
        _record(recorder, "a", n=1)
        _record(recorder, "b", n=2)
        path = recorder.dump(reason="unit.test", stats={"tasks": 4, "failed": 1})
        assert recorder.dumps == [path]

        bundle = flight.load_postmortem(path)
        assert bundle["bundle"] == "repro-postmortem"
        assert bundle["reason"] == "unit.test"
        assert bundle["schema_version"] >= 1
        assert [e["kind"] for e in bundle["events"]] == ["a", "b"]
        assert bundle["executor"] == {"tasks": 4, "failed": 1}
        assert bundle["environment"]["python"]

    def test_bundle_includes_metrics_snapshot(self, tmp_path):
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))
        with obs.Session(metrics=True, recorder=recorder):
            obs.metrics().inc("evaluations", 7)
            bundle = flight.load_postmortem(recorder.dump(reason="with.metrics"))
        assert bundle["metrics"]["counters"]["evaluations"] == 7

    def test_dump_without_dir_or_path_raises(self):
        with pytest.raises(ValueError, match="autodump_dir"):
            flight.FlightRecorder().dump(reason="nowhere")

    def test_maybe_autodump_is_silent_without_a_dir(self):
        assert flight.FlightRecorder().maybe_autodump("x") is None

    def test_v0_bundle_without_stamp_still_loads(self, tmp_path):
        path = str(tmp_path / "old.json")
        atomic_write_json(
            path, {"bundle": "repro-postmortem", "reason": "legacy", "events": []}
        )
        bundle = flight.load_postmortem(path)
        assert bundle["schema_version"] == 0
        assert bundle["repro_version"] is None

    def test_non_bundle_rejected(self, tmp_path):
        path = str(tmp_path / "not-a-bundle.json")
        atomic_write_json(path, {"kind": "something else"})
        with pytest.raises(flight.PostmortemError, match="not a postmortem"):
            flight.load_postmortem(path)

    def test_bundle_without_events_rejected(self, tmp_path):
        path = str(tmp_path / "no-events.json")
        atomic_write_json(path, {"bundle": "repro-postmortem", "events": None})
        with pytest.raises(flight.PostmortemError, match="events"):
            flight.load_postmortem(path)

    def test_bundle_is_json_safe(self, tmp_path):
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))
        _record(recorder, "nan.carrier", value=float("nan"))
        bundle = recorder.bundle("sanitise")
        json.dumps(bundle, allow_nan=False)  # must not raise
        assert bundle["events"][0]["value"] is None


class TestExecutorHooks:
    def test_abort_and_degrade_autodump(self, trained_mlp, moons_eval, tmp_path):
        eval_x, eval_y = moons_eval
        poison = InjectorRecipe.from_model(
            trained_mlp,
            eval_x,
            eval_y,
            spec=TargetSpec.weights_and_biases(),
            seed=7,
            model_builder=_always_crash_builder,
        )
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))

        with obs.Session(recorder=recorder):
            degraded = ParallelCampaignExecutor(
                poison, workers=2, max_attempts=1, on_failure="degrade", backoff_s=0.001
            )
            (result,) = degraded.run([ForwardSpec(p=1e-2, samples=8)])
            assert result is None and degraded.stats.failed == 1
            assert len(recorder.dumps) == 1
            bundle = flight.load_postmortem(recorder.dumps[0])
            assert bundle["reason"] == "executor.degraded"
            assert bundle["executor"]["failed"] == 1

            aborting = ParallelCampaignExecutor(
                poison, workers=2, max_attempts=1, on_failure="abort", backoff_s=0.001
            )
            with pytest.raises(CampaignExecutionError):
                aborting.run([ForwardSpec(p=1e-2, samples=8)])
        assert len(recorder.dumps) == 2
        assert flight.load_postmortem(recorder.dumps[1])["reason"] == "executor.abort"

    def test_clean_run_dumps_nothing(self, recipe, tmp_path):
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))
        with obs.Session(recorder=recorder):
            ParallelCampaignExecutor(recipe, workers=1).run([ForwardSpec(p=1e-3, samples=8)])
        assert recorder.dumps == []
        assert not any(name.startswith("postmortem-") for name in os.listdir(tmp_path))


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="platform has no SIGUSR1")
class TestSignalDump:
    def test_sigusr1_dumps_a_bundle(self, tmp_path):
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            assert flight.enable_signal_dump(recorder) == previous
            _record(recorder, "pre.signal", n=1)
            os.kill(os.getpid(), signal.SIGUSR1)
            assert len(recorder.dumps) == 1
            bundle = flight.load_postmortem(recorder.dumps[0])
            assert bundle["reason"] == "sigusr1"
            assert bundle["events"][0]["kind"] == "pre.signal"
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_session_restores_the_previous_handler(self, tmp_path):
        recorder = flight.FlightRecorder(autodump_dir=str(tmp_path))
        previous = signal.getsignal(signal.SIGUSR1)
        with obs.Session(recorder=recorder, signal_dump=True):
            assert signal.getsignal(signal.SIGUSR1) != previous
            os.kill(os.getpid(), signal.SIGUSR1)
        assert signal.getsignal(signal.SIGUSR1) == previous
        assert len(recorder.dumps) == 1

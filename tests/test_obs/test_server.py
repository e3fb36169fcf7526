"""Live telemetry server: endpoints, SSE, passivity, resume consistency.

The contract under test, in increasing order of integration:

* :func:`parse_endpoint` and the :class:`StatusTracker` fold are plain
  units;
* every endpoint serves the right payload (``/metrics`` passes the
  strict OpenMetrics validator);
* ``/metrics``, ``/status``, and ``/events`` can be polled concurrently
  *while* a parallel chaos campaign runs — and the instrumented campaign
  stays bit-identical to a bare one (observability is passive);
* after a kill-and-resume, the journal position reported by ``/status``
  is consistent with what the journal actually replayed.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.obs as obs
from repro.exec import CampaignJournal, ForwardSpec, ParallelCampaignExecutor
from repro.exec import chaos as chaos_mod
from repro.obs import MemorySink, flight
from repro.obs.openmetrics import parse_samples, validate_openmetrics
from repro.obs.progress import ProgressEvent
from repro.obs.server import SseSink, StatusServer, StatusTracker, parse_endpoint

P_GRID = (1e-4, 1e-3, 1e-2, 5e-2)


def _get(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers.get("Content-Type", ""), response.read().decode()


class TestParseEndpoint:
    def test_bare_port_binds_localhost(self):
        assert parse_endpoint("8080") == ("127.0.0.1", 8080)

    def test_host_and_port(self):
        assert parse_endpoint("0.0.0.0:9090") == ("0.0.0.0", 9090)

    def test_bracketed_ipv6(self):
        assert parse_endpoint("[::1]:8080") == ("::1", 8080)

    def test_port_zero_allowed(self):
        assert parse_endpoint("0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("spec", ["", "abc", "[::1]8080", "70000", "host:"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_endpoint(spec)


class TestStatusTracker:
    def _event(self, kind, wall_time=0.0, **payload):
        return ProgressEvent(kind=kind, payload=payload, wall_time=wall_time)

    def test_lifecycle_fold(self):
        tracker = StatusTracker()
        tracker.emit(self._event("executor.start", wall_time=10.0, tasks=3, workers=2))
        tracker.emit(self._event("executor.heartbeat", wall_time=10.5, task=0, pid=7, attempt=1, elapsed_s=0.5))
        tracker.emit(self._event("executor.task_done", wall_time=11.0, task=0))
        tracker.emit(self._event("executor.retry", task=1, cause="crash", attempt=2, backoff_s=0.0))
        tracker.emit(self._event("executor.task_failed", task=1))
        status = tracker.status()
        assert status["running"] is True
        assert status["tasks"] == {
            "total": 3,
            "completed": 1,
            "failed": 1,
            "remaining": 1,
            "retries": 1,
            "retries_by_cause": {"crash": 1},
        }
        # the completed/failed tasks' heartbeats are retired
        assert status["workers"] == {}

    def test_rate_and_eta_from_the_completion_window(self):
        tracker = StatusTracker()
        tracker.emit(self._event("executor.start", tasks=10, workers=1))
        for index in range(4):  # completions at t=0,2,4,6 → 0.5 tasks/s
            tracker.emit(self._event("executor.task_done", wall_time=index * 2.0, task=index))
        status = tracker.status()
        assert status["rate_per_s"] == pytest.approx(0.5)
        assert status["eta_s"] == pytest.approx(6 / 0.5)

    def test_no_eta_before_two_completions_or_after_completion(self):
        tracker = StatusTracker()
        tracker.emit(self._event("executor.start", tasks=2, workers=1))
        tracker.emit(self._event("executor.task_done", wall_time=1.0, task=0))
        assert tracker.status()["eta_s"] is None
        tracker.emit(self._event("executor.task_done", wall_time=2.0, task=1))
        tracker.emit(self._event("executor.complete", tasks=2, duration_s=2.0))
        status = tracker.status()
        assert status["running"] is False and status["eta_s"] is None
        assert status["last_complete"]["tasks"] == 2

    def test_journal_and_chaos_fold(self):
        tracker = StatusTracker()
        tracker.emit(self._event("journal.replayed", records=5, quarantined=1, path="j"))
        tracker.emit(self._event("journal.append", key="k", records=6))
        tracker.emit(self._event("journal.quarantined", lines=2, path="j"))
        tracker.emit(self._event("chaos.fired", site="pipe.drop"))
        status = tracker.status()
        assert status["journal"] == {"records": 6, "quarantined": 2}
        assert status["chaos_fired"] == {"pipe.drop": 1}


class TestSseSink:
    def test_delivery_and_bounded_drop(self):
        sink = SseSink(max_queue=2)
        client = sink.subscribe()
        for index in range(4):
            sink.emit(ProgressEvent(kind="tick", payload={"n": index}))
        assert sink.delivered == 2 and sink.dropped == 2
        assert json.loads(client.get_nowait())["n"] == 0
        sink.unsubscribe(client)
        assert sink.subscribers == 0

    def test_close_sends_the_sentinel(self):
        sink = SseSink()
        client = sink.subscribe()
        sink.close()
        assert client.get_nowait() is None
        # subscribing after close yields an immediately-terminated stream
        assert sink.subscribe().get_nowait() is None


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        with StatusServer(port=0, tracker=StatusTracker(), labels={"pid": "1"}) as server:
            yield server

    def test_healthz(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200 and body == "ok\n"

    def test_metrics_is_validator_clean_openmetrics(self, server):
        obs.configure(metrics=True)  # the thin setter on the current session
        obs.metrics().inc("evaluations", 3)
        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("application/openmetrics-text")
        validate_openmetrics(body)
        assert parse_samples(body)["repro_evaluations_total"] == 3

    def test_metrics_without_registry_is_empty_but_valid(self, server):
        _, _, body = _get(server.url + "/metrics")
        assert validate_openmetrics(body) == {}

    def test_status_document(self, server):
        server.tracker.emit(
            ProgressEvent(kind="executor.start", payload={"tasks": 2, "workers": 1})
        )
        status, content_type, body = _get(server.url + "/status")
        assert status == 200 and content_type.startswith("application/json")
        document = json.loads(body)
        assert document["tasks"]["total"] == 2
        assert document["server"]["url"] == server.url
        assert document["server"]["uptime_s"] >= 0

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_index_lists_endpoints(self, server):
        _, _, body = _get(server.url)
        assert set(json.loads(body)["endpoints"]) == {
            "/metrics", "/status", "/estimates", "/events", "/healthz",
        }

    def test_estimates_without_estimator_is_503(self):
        with StatusServer(port=0) as bare:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(bare.url + "/estimates")
        with excinfo.value as response:
            assert response.code == 503
            assert "no estimator" in response.read().decode("utf-8")

    def test_estimates_and_status_expose_the_tracker_document(self):
        from repro.obs.estimator import StoppingTarget

        tracker = StatusTracker(target=StoppingTarget(0.1))
        estimator = tracker.estimator
        tracker.emit(
            ProgressEvent(
                kind="estimate",
                payload={
                    "task": 0, "layer": "fc1", "bitfield": "all", "p": 1e-2,
                    "trials": 40, "degraded_trials": [1, 5],
                },
            )
        )
        with StatusServer(port=0, tracker=tracker) as server:
            status, content_type, body = _get(server.url + "/estimates")
            assert status == 200 and content_type.startswith("application/json")
            document = json.loads(body)
            assert document["schema_version"] >= 1  # artifact-stamped
            assert document["tasks"] == 1
            assert document["strata"][0]["layer"] == "fc1"
            # /status embeds the same document, so `repro top` renders it
            # identically from a URL or a JSONL replay
            _, _, status_body = _get(server.url + "/status")
            embedded = json.loads(status_body)["estimator"]
            assert embedded == estimator.estimates()
            # /metrics carries the per-stratum families, validator-clean
            _, _, metrics_body = _get(server.url + "/metrics")
            families = validate_openmetrics(metrics_body)
            assert families["repro_stratum_ci_halfwidth"] == "gauge"
            assert families["repro_strata_converged"] == "counter"
            assert 'layer="fc1"' in metrics_body

    def test_events_streams_published_frames(self, server):
        frames = []
        ready = threading.Event()

        def consume():
            with urllib.request.urlopen(server.url + "/events", timeout=5.0) as response:
                ready.set()
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if line.startswith("data: "):
                        frames.append(json.loads(line[len("data: "):]))
                        if len(frames) == 2:
                            break

        reader = threading.Thread(target=consume, daemon=True)
        reader.start()
        assert ready.wait(5.0)
        # wait for the subscription to land before publishing
        for _ in range(100):
            if server.sse.subscribers:
                break
            time.sleep(0.01)
        server.sse.emit(ProgressEvent(kind="a", payload={"n": 1}))
        server.sse.emit(ProgressEvent(kind="b", payload={"n": 2}))
        reader.join(timeout=5.0)
        assert [frame["kind"] for frame in frames] == ["a", "b"]

    def test_stop_is_idempotent_and_unblocks_sse(self, server):
        client = server.sse.subscribe()
        server.stop()
        assert client.get(timeout=1.0) is None
        server.stop()  # second stop is a no-op


class TestLiveCampaign:
    """Poll every endpoint concurrently during a real parallel chaos run."""

    def test_concurrent_polling_during_chaos_campaign(self, recipe, tmp_path):
        sink = MemorySink()
        # one guaranteed pipe.drop: a chaos retry fires, the run completes
        plan = chaos_mod.ChaosPlan.from_rates(
            {"pipe.drop": chaos_mod.ChaosRule(rate=1.0, count=1)}, seed=0
        )
        journal = CampaignJournal(str(tmp_path / "live.journal.jsonl"))
        executor = ParallelCampaignExecutor(
            recipe,
            workers=2,
            journal=journal,
            max_attempts=3,
            backoff_s=0.001,
            chaos=plan,
            start_method="fork",
        )

        stop = threading.Event()
        polled = {"metrics": [], "status": []}
        errors = []

        def poll():
            while not stop.is_set():
                try:
                    _, _, metrics_body = _get(server.url + "/metrics")
                    validate_openmetrics(metrics_body)
                    polled["metrics"].append(metrics_body)
                    _, _, status_body = _get(server.url + "/status")
                    polled["status"].append(json.loads(status_body))
                except Exception as exc:  # noqa: BLE001 — collected for the assertion
                    errors.append(exc)
                stop.wait(0.02)

        sse_frames = []

        def consume_events():
            try:
                with urllib.request.urlopen(server.url + "/events", timeout=10.0) as response:
                    for raw in response:
                        line = raw.decode("utf-8").strip()
                        if line.startswith("data: "):
                            sse_frames.append(json.loads(line[len("data: "):]))
            except OSError:
                pass  # server shut down mid-read; frames so far still count

        with obs.Session(metrics=True, sinks=[sink], serve=("127.0.0.1", 0)) as session:
            server = session.server
            poller = threading.Thread(target=poll, daemon=True)
            consumer = threading.Thread(target=consume_events, daemon=True)
            poller.start()
            consumer.start()
            results = executor.run([ForwardSpec(p=p, samples=8) for p in P_GRID])
            # one more poll cycle sees the completed state
            stop.wait(0.1)
            stop.set()
            poller.join(timeout=5.0)
            final = json.loads(_get(server.url + "/status")[2])
        consumer.join(timeout=5.0)
        journal.close()

        assert not errors
        assert all(result is not None for result in results)
        assert polled["metrics"] and polled["status"]
        assert final["running"] is False
        assert final["tasks"]["completed"] == len(P_GRID)
        assert final["journal"]["records"] == len(P_GRID)
        assert final["last_complete"]["tasks"] == len(P_GRID)
        kinds = {frame["kind"] for frame in sse_frames}
        assert "executor.task_done" in kinds
        # the session delivered the same stream to every sink
        assert len(sink.of_kind("executor.task_done")) == len(P_GRID)

    def test_full_instrumentation_is_bit_identical(self, recipe):
        specs = [ForwardSpec(p=p, samples=8) for p in P_GRID[:2]]

        bare = ParallelCampaignExecutor(recipe, workers=2).run(list(specs))

        from repro.obs.estimator import StoppingTarget

        tracker = StatusTracker(target=StoppingTarget(0.1))
        recorder = flight.FlightRecorder()
        with obs.Session(
            metrics=True, tracer=True, status=tracker, recorder=recorder, serve=("127.0.0.1", 0)
        ) as session:
            instrumented = ParallelCampaignExecutor(recipe, workers=2).run(list(specs))
            _get(session.server.url + "/metrics")
            _get(session.server.url + "/status")
            _get(session.server.url + "/estimates")

        assert recorder.recorded > 0  # the instruments really were live
        assert tracker.estimator.contributions == len(specs)
        for bare_result, instrumented_result in zip(bare, instrumented):
            assert np.array_equal(
                bare_result.chains.matrix(), instrumented_result.chains.matrix()
            )
            assert np.array_equal(
                bare_result.posterior.samples, instrumented_result.posterior.samples
            )


class TestResumeConsistency:
    """A killed-and-resumed campaign reports a consistent journal position."""

    def test_status_journal_position_survives_resume(self, recipe, tmp_path):
        path = str(tmp_path / "resume.journal.jsonl")
        specs = [ForwardSpec(p=p, samples=8) for p in P_GRID]

        # first life: a chaos run (worker SIGKILLed mid-run) that completes
        # with every record journaled; the seed is searched so at least one
        # task is killed on attempt 1 but none is poisoned to exhaustion
        def fires(seed, task, attempt):
            return chaos_mod.chaos_uniform(seed, "worker.sigkill", (task, attempt)) < 0.5

        seed = next(
            s
            for s in range(1000)
            if any(fires(s, t, 1) for t in range(len(specs)))
            and not any(all(fires(s, t, a) for a in (1, 2, 3)) for t in range(len(specs)))
        )
        plan = chaos_mod.ChaosPlan.from_rates({"worker.sigkill": 0.5}, seed=seed)
        first_tracker = StatusTracker()
        with obs.Session(status=first_tracker), CampaignJournal(path) as journal:
            first = ParallelCampaignExecutor(
                recipe,
                workers=2,
                journal=journal,
                max_attempts=3,
                backoff_s=0.001,
                chaos=plan,
                start_method="fork",
            )
            first.run(list(specs))
        assert first.stats.crashes >= 1  # the kill really happened
        first_status = first_tracker.status()
        assert first_status["journal"]["records"] == len(specs)

        # second life: a fresh process state (new tracker) resumes the
        # journal; the replay event alone restores the journal position
        second_tracker = StatusTracker()
        with obs.Session(status=second_tracker), CampaignJournal.resume(path) as resumed:
            assert second_tracker.status()["journal"]["records"] == len(specs)

            # re-running the same specs is pure journal hits: no task
            # re-runs, and /status still reports the same position
            executor = ParallelCampaignExecutor(recipe, workers=2, journal=resumed)
            results = executor.run(list(specs))
        assert executor.stats.journal_hits == len(specs)
        assert all(result is not None for result in results)
        final = second_tracker.status()
        assert final["journal"]["records"] == len(specs)
        assert final["tasks"]["completed"] == 0  # nothing re-ran
        assert final["running"] is False

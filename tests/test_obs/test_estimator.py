"""Estimator telemetry: the tracker fold, stopping monitor, and surfaces.

The load-bearing properties:

* the estimates document is a pure function of the delivered outcome
  *set* — delivery order, duplicate deliveries, and journal replays
  cannot change a single bit of it;
* estimator telemetry is passive — campaigns run with a tracker attached
  are bit-identical to bare runs, sequential and pooled;
* every surface (``/estimates``, ``/metrics`` families, the ``/status``
  embed, postmortem bundles) exposes the same document.
"""

import json
import random

import numpy as np
import pytest

import repro.obs as obs
from repro.bits.fields import EXPONENT_BITS, MANTISSA_BITS, SIGN_BIT
from repro.exec import ForwardSpec, ParallelCampaignExecutor
from repro.faults import BernoulliBitFlipModel, TargetSpec
from repro.obs import MemorySink
from repro.obs.estimator import (
    EVENT_KIND,
    EstimatorTracker,
    StoppingTarget,
    outcome_payload,
    publish_outcome,
)
from repro.obs.progress import ProgressEvent


def _event(task, trials=20, degraded=(), layer="all", bitfield="all", p=1e-3):
    return ProgressEvent(
        kind=EVENT_KIND,
        payload={
            "task": task,
            "layer": layer,
            "bitfield": bitfield,
            "p": p,
            "trials": trials,
            "degraded_trials": list(degraded),
        },
    )


class TestStoppingTarget:
    def test_valid_target_roundtrips(self):
        target = StoppingTarget(halfwidth=0.05, mass=0.9)
        assert target.to_dict() == {"halfwidth": 0.05, "mass": 0.9}

    @pytest.mark.parametrize("halfwidth", [0.0, 0.5, 1.0, -0.1])
    def test_halfwidth_outside_open_interval_rejected(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth"):
            StoppingTarget(halfwidth=halfwidth)

    @pytest.mark.parametrize("mass", [0.0, 1.0, -0.5])
    def test_mass_outside_open_interval_rejected(self, mass):
        with pytest.raises(ValueError, match="mass"):
            StoppingTarget(halfwidth=0.1, mass=mass)


class TestOutcomePayload:
    def test_payload_carries_stratum_and_trial_resolution(self, make_injector):
        spec = ForwardSpec(p=1e-2, samples=24)
        outcome = make_injector().run(spec)
        payload = outcome_payload(3, outcome, spec=spec, target=TargetSpec(include_layers=("fc1",)))
        assert payload["task"] == 3
        assert payload["layer"] == "fc1"
        assert payload["bitfield"] == "all"
        assert payload["p"] == 1e-2
        assert payload["trials"] == outcome.posterior.samples.size
        degraded = np.asarray(payload["degraded_trials"])
        expected = np.flatnonzero(outcome.posterior.samples > outcome.posterior.golden_error)
        assert np.array_equal(degraded, expected)

    def test_bitfield_label_classifies_lanes(self, make_injector):
        outcome = make_injector().run(ForwardSpec(p=1e-2, samples=8))
        spec = ForwardSpec(
            p=1e-2,
            samples=8,
            fault_model=BernoulliBitFlipModel(1e-2, bits=(SIGN_BIT, EXPONENT_BITS[0])),
        )
        payload = outcome_payload(0, outcome, spec=spec)
        assert payload["bitfield"] == "exponent+sign"
        mantissa_only = ForwardSpec(
            p=1e-2, samples=8, fault_model=BernoulliBitFlipModel(1e-2, bits=MANTISSA_BITS[:3])
        )
        assert outcome_payload(0, outcome, spec=mantissa_only)["bitfield"] == "mantissa"

    def test_tempered_tuple_unwrapped(self, make_injector):
        outcome = make_injector().run(ForwardSpec(p=1e-2, samples=8))
        direct = outcome_payload(0, outcome)
        wrapped = outcome_payload(0, (outcome, object()))
        assert wrapped == direct

    def test_publish_reaches_sink_and_tracker(self, make_injector):
        spec = ForwardSpec(p=1e-2, samples=8)
        outcome = make_injector().run(spec)
        sink = MemorySink()
        tracker = EstimatorTracker()
        with obs.Session(sinks=[sink, tracker]):
            publish_outcome(0, outcome, spec=spec)
        (event,) = sink.of_kind(EVENT_KIND)
        assert event.payload["trials"] == 8
        assert tracker.contributions == 1

    def test_publish_is_free_when_unobserved(self, make_injector):
        # no sink, no flight recorder: the payload is never even built
        outcome = make_injector().run(ForwardSpec(p=1e-2, samples=8))
        publish_outcome(0, outcome)  # must not raise, must not need labels


class TestTrackerFold:
    def test_non_estimate_events_ignored(self):
        tracker = EstimatorTracker()
        tracker.emit(ProgressEvent(kind="executor.task_done", payload={"task": 0}))
        assert tracker.contributions == 0

    def test_degenerate_payloads_rejected(self):
        tracker = EstimatorTracker()
        tracker.emit(ProgressEvent(kind=EVENT_KIND, payload={"trials": 5}))
        tracker.emit(ProgressEvent(kind=EVENT_KIND, payload={"task": 0, "trials": 0}))
        assert tracker.contributions == 0

    def test_duplicate_delivery_is_idempotent(self):
        tracker = EstimatorTracker()
        tracker.emit(_event(0, degraded=[1, 2]))
        before = tracker.estimates()
        tracker.emit(_event(0, degraded=[1, 2]))
        tracker.emit(_event(0, degraded=[3]))  # replay with junk: first wins
        assert tracker.contributions == 1
        assert tracker.estimates() == before

    def test_document_is_delivery_order_independent(self):
        events = [
            _event(i, trials=10 + i, degraded=range(i % 4), p=[1e-3, 1e-2][i % 2])
            for i in range(12)
        ]
        in_order = EstimatorTracker(target=StoppingTarget(0.1))
        for event in events:
            in_order.emit(event)
        shuffled = EstimatorTracker(target=StoppingTarget(0.1))
        for event in random.Random(7).sample(events, len(events)):
            shuffled.emit(event)
        assert json.dumps(in_order.estimates()) == json.dumps(shuffled.estimates())


class TestEstimatesDocument:
    def test_posterior_matches_beta_by_hand(self):
        from repro.bayes.distributions import Beta

        tracker = EstimatorTracker()
        tracker.emit(_event(0, trials=40, degraded=range(10)))
        doc = tracker.estimates()
        assert doc["tasks"] == 1 and doc["trials"] == 40 and doc["degraded"] == 10
        posterior = Beta(0.5 + 10, 0.5 + 30)  # Jeffreys prior
        (stratum,) = doc["strata"]
        assert stratum["mean"] == posterior.mean
        assert stratum["interval"] == list(posterior.interval(0.95))
        assert stratum["variance"] == posterior.variance
        assert stratum["halfwidth"] == (stratum["interval"][1] - stratum["interval"][0]) / 2

    def test_strata_keyed_by_layer_bitfield_p(self):
        tracker = EstimatorTracker()
        tracker.emit(_event(0, layer="fc1", p=1e-3))
        tracker.emit(_event(1, layer="fc1", p=1e-2))
        tracker.emit(_event(2, layer="fc2", p=1e-3))
        tracker.emit(_event(3, layer="fc1", p=1e-3))
        doc = tracker.estimates()
        keys = [(s["layer"], s["p"]) for s in doc["strata"]]
        assert keys == [("fc1", 1e-3), ("fc1", 1e-2), ("fc2", 1e-3)]
        assert [s["tasks"] for s in doc["strata"]] == [2, 1, 1]

    def test_history_is_bounded_and_monotone_in_n(self):
        tracker = EstimatorTracker()
        tracker.emit(_event(0, trials=500, degraded=range(0, 500, 7)))
        (stratum,) = tracker.estimates()["strata"]
        history = stratum["history"]
        assert len(history) <= 32
        ns = [point["n"] for point in history]
        assert ns == sorted(ns) and ns[-1] == 500
        # more trials can only tighten the interval at the far end
        assert history[-1]["halfwidth"] < history[0]["halfwidth"]

    def test_crossed_at_stamps_first_crossing_task(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.12))
        # one tiny task (wide CI), then a big one that crosses the target
        tracker.emit(_event(4, trials=5, degraded=[0]))
        tracker.emit(_event(9, trials=200, degraded=range(40)))
        (stratum,) = tracker.estimates()["strata"]
        assert stratum["converged"] is True
        assert stratum["crossed_at"] == 9

    def test_unconverged_stratum_has_no_stamp(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.01))
        tracker.emit(_event(0, trials=10, degraded=[0]))
        (stratum,) = tracker.estimates()["strata"]
        assert stratum["converged"] is False and stratum["crossed_at"] is None

    def test_campaign_crossing_is_the_last_stratum_crossing(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.12))
        tracker.emit(_event(0, trials=200, degraded=range(20), p=1e-3))
        tracker.emit(_event(5, trials=200, degraded=range(60), p=1e-2))
        doc = tracker.estimates()
        assert doc["converged"] == {"converged": 2, "total": 2, "fraction": 1.0}
        assert doc["overall"]["crossed_at"] == 5

    def test_partial_convergence_reports_fraction_without_stamp(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.12))
        tracker.emit(_event(0, trials=200, degraded=range(20), p=1e-3))
        tracker.emit(_event(1, trials=4, degraded=[0], p=1e-2))
        doc = tracker.estimates()
        assert doc["converged"]["converged"] == 1
        assert doc["converged"]["fraction"] == 0.5
        assert doc["overall"]["crossed_at"] is None

    def test_no_target_means_no_convergence_accounting(self):
        tracker = EstimatorTracker()
        tracker.emit(_event(0))
        doc = tracker.estimates()
        assert doc["target"] is None and doc["converged"] is None
        (stratum,) = doc["strata"]
        assert stratum["converged"] is None and stratum["crossed_at"] is None

    def test_document_is_json_safe(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.1))
        for i in range(5):
            tracker.emit(_event(i, trials=30, degraded=range(i)))
        json.dumps(tracker.estimates())  # no numpy scalars anywhere


class TestMetricFamilies:
    def test_families_render_to_valid_openmetrics(self):
        from repro.obs.openmetrics import parse_samples, render_openmetrics, validate_openmetrics

        tracker = EstimatorTracker(target=StoppingTarget(0.1))
        tracker.emit(_event(0, trials=200, degraded=range(20), layer="fc1", p=1e-3))
        tracker.emit(_event(1, trials=8, degraded=[0], layer="fc2", p=1e-2))
        text = render_openmetrics(None, families=tracker.metric_families())
        families = validate_openmetrics(text)
        assert families["repro_stratum_mean"] == "gauge"
        assert families["repro_stratum_ci_halfwidth"] == "gauge"
        assert families["repro_stratum_trials"] == "counter"
        assert families["repro_ci_halfwidth"] == "gauge"
        assert families["repro_strata_converged"] == "counter"
        samples = parse_samples(text)
        assert samples["repro_strata_converged_total"] == 1
        assert 'layer="fc1"' in text and 'p="0.001"' in text

    def test_empty_tracker_exports_nothing(self):
        assert EstimatorTracker().metric_families() == []

    def test_converged_counter_absent_without_target(self):
        tracker = EstimatorTracker()
        tracker.emit(_event(0))
        names = {family["name"] for family in tracker.metric_families()}
        assert "strata_converged" not in names
        assert {"stratum_mean", "stratum_ci_halfwidth", "stratum_trials", "ci_halfwidth"} <= names


class TestStoppingMonitor:
    def test_requires_an_armed_target(self):
        with pytest.raises(ValueError, match="StoppingTarget"):
            EstimatorTracker().report_lines()

    def test_report_names_crossings_and_stragglers(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.12))
        tracker.emit(_event(0, trials=200, degraded=range(20), p=1e-3))
        tracker.emit(_event(1, trials=4, degraded=[0], p=1e-2))
        lines = tracker.report_lines()
        assert "target halfwidth 0.12" in lines[0]
        assert any("crossed at task 0" in line for line in lines)
        assert any("not yet converged" in line for line in lines)
        assert any("1/2 strata at target" in line for line in lines)

    def test_summary_carries_campaign_stamp(self):
        tracker = EstimatorTracker(target=StoppingTarget(0.12))
        tracker.emit(_event(3, trials=200, degraded=range(20)))
        lines = tracker.report_lines()
        assert lines[1].endswith("(crossed at task 3)")
        assert lines[-1].endswith("; campaign crossed at task 3")


class TestInstalledTracker:
    def test_status_fold_owns_the_tracker(self):
        from repro.obs.server import StatusTracker

        status = StatusTracker(target=StoppingTarget(0.1))
        status.emit(_event(0, trials=10, degraded=[2]))
        assert status.estimator.target == StoppingTarget(0.1)
        assert status.estimator.contributions == 1
        assert status.status()["estimator"] == status.estimator.estimates()

    def test_flight_bundle_embeds_estimator_state(self):
        from repro.obs.flight import FlightRecorder
        from repro.obs.server import StatusTracker

        status = StatusTracker()
        with obs.Session(status=status):
            obs.publish(EVENT_KIND, **_event(0, trials=10, degraded=[2]).payload)
            bundle = FlightRecorder().bundle("test")
        assert bundle["estimator"]["tasks"] == 1
        assert bundle["estimator"]["strata"][0]["trials"] == 10
        assert FlightRecorder().bundle("test")["estimator"] is None


class TestPassivityAndParity:
    def test_campaign_with_tracker_is_bit_identical(self, make_injector):
        spec = ForwardSpec(p=1e-2, samples=24)
        bare = make_injector().run(spec)
        tracker = EstimatorTracker(target=StoppingTarget(0.05))
        with obs.Session(sinks=[tracker]):
            observed = make_injector().run(spec)
        assert np.array_equal(bare.chains.matrix(), observed.chains.matrix())
        assert np.array_equal(bare.posterior.samples, observed.posterior.samples)

    def test_pooled_and_sequential_documents_are_identical(self, recipe):
        specs = [ForwardSpec(p=p, samples=16) for p in np.logspace(-4, -1, 4)]

        def run(workers):
            tracker = EstimatorTracker(target=StoppingTarget(0.2))
            with obs.Session(sinks=[tracker]):
                results = ParallelCampaignExecutor(recipe, workers=workers).run(list(specs))
            return results, tracker.estimates()

        seq_results, seq_doc = run(1)
        par_results, par_doc = run(4)
        assert json.dumps(seq_doc) == json.dumps(par_doc)
        assert seq_doc["tasks"] == len(specs)
        for seq, par in zip(seq_results, par_results):
            assert np.array_equal(seq.posterior.samples, par.posterior.samples)

    def test_journal_resume_reconstructs_the_document(self, recipe, tmp_path):
        from repro.exec import CampaignJournal

        specs = [ForwardSpec(p=p, samples=16) for p in (1e-3, 1e-2)]
        path = str(tmp_path / "journal.jsonl")

        def run():
            tracker = EstimatorTracker(target=StoppingTarget(0.2))
            with obs.Session(sinks=[tracker]), CampaignJournal(path) as journal:
                ParallelCampaignExecutor(recipe, workers=1, journal=journal).run(list(specs))
            return tracker.estimates()

        fresh = run()
        restored = run()  # second run restores every task from the journal
        assert json.dumps(restored) == json.dumps(fresh)

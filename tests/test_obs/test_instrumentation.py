"""Observability wired through campaigns, executors, and journals.

The load-bearing properties:

* instrumentation is *passive* — campaigns are bit-identical with and
  without every instrument attached;
* the digest-merge-once discipline — driver counter totals from a real
  worker pool equal a sequential run's exactly, and journal-restored
  results still contribute their stamped digests;
* liveness — progress events stream during adaptive campaigns and
  heartbeats surface slow workers before any timeout fires.
"""

import dataclasses
import functools
import logging
import math
import os
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.exec import (
    CampaignJournal,
    ForwardSpec,
    InjectorRecipe,
    ParallelCampaignExecutor,
)
from repro.exec.executor import ExecutionStats
from repro.faults import TargetSpec
from repro.nn import paper_mlp
from repro.obs import MemorySink
from repro.utils.logging import get_verbosity, set_verbosity

P_GRID_4 = tuple(np.logspace(-4, -1, 4))


def _sleepy_builder(delay_s: float):
    time.sleep(delay_s)
    return paper_mlp(rng=0)


class TestCampaignDigest:
    def test_digest_stamped_even_without_instruments(self, make_injector):
        result = make_injector().run(ForwardSpec(p=1e-2, samples=24))
        counters = result.metrics["counters"]
        assert counters["campaigns"] == 1
        assert counters["evaluations"] == result.total_evaluations
        assert "campaign.duration_s" in result.metrics["histograms"]

    def test_detailed_counters_satisfy_flip_invariants(self, make_injector):
        obs.configure(metrics=True)  # the thin setter on the current session
        result = make_injector().run(ForwardSpec(p=1e-2, samples=24))
        counters = result.metrics["counters"]
        # every recorded step is one forward pass of one sampled configuration
        assert counters["forward_passes"] == counters["evaluations"]
        applied = counters["flips.applied"]
        by_field = sum(v for k, v in counters.items() if k.startswith("flips.field."))
        by_layer = sum(v for k, v in counters.items() if k.startswith("flips.layer."))
        assert by_field == applied == by_layer
        assert applied > 0  # p=1e-2 over ~100 parameters flips something
        # the same digest landed in the driver registry
        assert obs.metrics().counters()["evaluations"] == counters["evaluations"]

    def test_digest_roundtrips_through_to_dict(self, make_injector):
        from repro.core.campaign import CampaignResult

        result = make_injector().run(ForwardSpec(p=1e-2, samples=16))
        restored = CampaignResult.from_dict(result.to_dict())
        assert restored.metrics["counters"] == result.metrics["counters"]

    def test_instrumented_campaign_is_bit_identical(self, make_injector):
        spec = ForwardSpec(p=1e-2, samples=24)
        bare = make_injector().run(spec)
        with obs.Session(metrics=True, tracer=True, sinks=[MemorySink()]):
            instrumented = make_injector().run(spec)
        assert np.array_equal(bare.chains.matrix(), instrumented.chains.matrix())
        assert np.array_equal(bare.posterior.samples, instrumented.posterior.samples)

    def test_campaign_spans_recorded(self, make_injector):
        with obs.Session(tracer=True) as session:
            make_injector().run(ForwardSpec(p=1e-2, samples=16))
        names = {event["name"] for event in session.tracer.events}
        assert "campaign.forward" in names
        assert "chain.forward" in names


class TestEvaluationRate:
    def test_zero_duration_yields_nan_not_inf(self, make_injector):
        result = make_injector().run(ForwardSpec(p=1e-3, samples=8))
        stale = dataclasses.replace(result, duration_s=0.0)
        assert math.isnan(stale.evaluations_per_second)
        assert stale.summary_row()["evals_per_s"] == "n/a"

    def test_positive_duration_yields_rate(self, make_injector):
        result = make_injector().run(ForwardSpec(p=1e-3, samples=8))
        timed = dataclasses.replace(result, duration_s=2.0)
        assert timed.summary_row()["evals_per_s"] == timed.total_evaluations / 2.0


class TestLiveProgress:
    def test_adaptive_campaign_streams_mixing_diagnostics(self, make_injector):
        sink = MemorySink()
        with obs.Session(sinks=[sink]):
            make_injector().run_until_complete(p=1e-2, chains=2, batch_steps=10, max_steps=20)
        events = sink.of_kind("adaptive.progress")
        assert events  # one per batch assessment
        payload = events[-1].payload
        for key in ("p", "steps", "complete", "r_hat", "ess", "window_r_hat"):
            assert key in payload
        assert payload["steps"] == 20

    def test_forward_chains_checkpoint_every_50_steps(self, make_injector):
        sink = MemorySink()
        with obs.Session(sinks=[sink]):
            make_injector().run(ForwardSpec(p=1e-2, samples=200, chains=2))  # 100 steps/chain
        events = sink.of_kind("chain.progress")
        assert len(events) == 4  # 2 chains x steps {50, 100}
        assert {e.payload["sampler"] for e in events} == {"forward"}


class TestExecutorParity:
    def test_pool_counters_equal_sequential_counters(self, recipe):
        specs = [ForwardSpec(p=p, samples=16) for p in P_GRID_4]

        def run(workers):
            with obs.Session(metrics=True) as session:
                results = ParallelCampaignExecutor(recipe, workers=workers).run(list(specs))
            return results, session.metrics.counters()

        sequential_results, sequential_counters = run(1)
        parallel_results, parallel_counters = run(4)
        # the acceptance criterion: per-worker digests reduce to the exact
        # totals a sequential run records, and results stay bit-identical
        assert parallel_counters == sequential_counters
        assert sequential_counters["executor.tasks"] == len(specs)
        assert sequential_counters["campaigns"] == len(specs)
        for seq, par in zip(sequential_results, parallel_results):
            assert np.array_equal(seq.chains.matrix(), par.chains.matrix())

    def test_worker_trace_events_merge_into_driver(self, recipe):
        with obs.Session(tracer=True) as session:
            executor = ParallelCampaignExecutor(recipe, workers=2)
            executor.run([ForwardSpec(p=p, samples=8) for p in P_GRID_4[:2]])
        workers = {
            event["pid"]
            for event in session.tracer.events
            if event["name"] == "worker.build"
        }
        assert workers and os.getpid() not in workers  # honest per-process tags
        names = {event["name"] for event in session.tracer.events}
        assert "campaign.forward" in names  # worker-side campaign spans shipped home

    def test_executor_publishes_lifecycle_events(self, recipe):
        sink = MemorySink()
        with obs.Session(sinks=[sink]):
            ParallelCampaignExecutor(recipe, workers=2).run(
                [ForwardSpec(p=p, samples=8) for p in P_GRID_4[:2]]
            )
        assert len(sink.of_kind("executor.task_done")) == 2
        (done,) = sink.of_kind("executor.complete")
        assert done.payload["tasks"] == 2 and done.payload["parallel"] is True


class TestHeartbeats:
    def test_slow_worker_beats_before_completing(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        sleepy = InjectorRecipe.from_model(
            trained_mlp,
            eval_x,
            eval_y,
            spec=TargetSpec.weights_and_biases(),
            seed=7,
            model_builder=functools.partial(_sleepy_builder, 0.6),
        )
        sink = MemorySink()
        executor = ParallelCampaignExecutor(sleepy, workers=2, heartbeat_s=0.1)
        with obs.Session(sinks=[sink]):
            (result,) = executor.run([ForwardSpec(p=1e-2, samples=8)])
        assert result.mean_error >= 0.0  # the slow task still completed
        beats = sink.of_kind("executor.heartbeat")
        assert beats and executor.stats.heartbeats == len(beats)
        payload = beats[0].payload
        assert payload["elapsed_s"] > 0.0 and payload["pid"] != os.getpid()

    def test_heartbeat_interval_must_be_positive(self, recipe):
        with pytest.raises(ValueError):
            ParallelCampaignExecutor(recipe, workers=2, heartbeat_s=0.0)


class TestWorkerPropagation:
    def test_config_captures_driver_state(self):
        set_verbosity(logging.DEBUG)
        config = obs.Session(metrics=True, tracer=True).worker_config()
        assert config.verbosity == logging.DEBUG
        assert config.trace and config.detailed_metrics

    def test_apply_installs_fresh_instruments(self):
        set_verbosity(logging.WARNING)
        config = obs.WorkerObsConfig(verbosity=logging.DEBUG, trace=True, detailed_metrics=True)
        with obs.Session(tracer=True, sinks=[MemorySink()]):
            with obs.span("parent.only"):
                pass
            with config.session():
                assert get_verbosity() == logging.DEBUG
                assert obs.metrics() is not None
                assert obs.tracer() is not None and len(obs.tracer()) == 0  # nothing inherited
                assert not obs.listening()  # sinks never cross the process boundary
            assert obs.listening()  # the enclosing session is back
        assert get_verbosity() == logging.WARNING

    def test_default_config_disables_everything(self):
        with obs.Session(metrics=True, tracer=True, sinks=[MemorySink()]):
            with obs.WorkerObsConfig().session():
                assert obs.metrics() is None and obs.tracer() is None


class TestJournalDigests:
    def test_restored_results_still_feed_driver_totals(self, recipe, tmp_path):
        specs = [ForwardSpec(p=p, samples=16) for p in P_GRID_4[:2]]
        path = str(tmp_path / "journal.jsonl")

        with obs.Session(metrics=True) as session, CampaignJournal(path) as journal:
            ParallelCampaignExecutor(recipe, workers=1, journal=journal).run(list(specs))
        first = session.metrics.counters()

        with obs.Session(metrics=True) as session, CampaignJournal(path) as journal:
            executor = ParallelCampaignExecutor(recipe, workers=1, journal=journal)
            executor.run(list(specs))
        second = session.metrics.counters()

        assert executor.stats.journal_hits == len(specs)
        # campaign-level totals are identical whether the work ran or was
        # restored; only the executor's own bookkeeping differs
        strip = lambda c: {k: v for k, v in c.items() if not k.startswith("executor.")}  # noqa: E731
        assert strip(second) == strip(first)
        assert second["executor.journal_hits"] == len(specs)


class TestStatsSummary:
    def test_summary_mentions_only_nonzero_extras(self):
        quiet = ExecutionStats(tasks=3, duration_s=0.5, parallel=False)
        assert quiet.summary() == "3 task(s) in 0.50s (sequential, 6.0 tasks/s)"
        noisy = ExecutionStats(
            tasks=4,
            duration_s=0.15,
            parallel=True,
            retries_by_cause={"crash": 1},
            timeouts=2,
        )
        assert noisy.summary() == (
            "4 task(s) in 0.15s (parallel, 26.7 tasks/s); retries 1 (crash 1), timeouts 2"
        )

    def test_summary_omits_rate_without_duration(self):
        stats = ExecutionStats(tasks=2, duration_s=0.0, parallel=False)
        assert stats.summary() == "2 task(s) in 0.00s (sequential)"

    def test_summary_reports_worst_heartbeat_gap(self):
        stats = ExecutionStats(
            tasks=1, duration_s=1.0, parallel=True, worst_heartbeat_gap_s=0.37
        )
        assert "worst heartbeat gap 0.37s" in stats.summary()

    def test_note_gap_keeps_the_maximum(self):
        stats = ExecutionStats()
        stats.note_gap(0.2)
        stats.note_gap(0.9)
        stats.note_gap(0.5)
        assert stats.worst_heartbeat_gap_s == 0.9

    def test_to_dict_carries_accounting_and_health(self):
        stats = ExecutionStats(tasks=3, duration_s=0.5, parallel=True)
        stats.count_retry("crash")
        record = stats.to_dict()
        assert record["tasks"] == 3
        assert record["completed"] == 3 and record["failed"] == 0
        assert record["parallel"] is True
        assert record["retries"] == 1 and record["retries_by_cause"]["crash"] == 1
        assert "worst_heartbeat_gap_s" in record

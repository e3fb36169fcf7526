"""Deterministic infrastructure chaos: plans, injection sites, recovery.

The executor/persist scenarios here arm real chaos plans against real
worker processes and real files; the core contract under test is the one
the soak harness enforces at scale — chaos decisions are deterministic
per seed, never touch campaign RNG streams, and every failure either
retries to a bit-identical result or lands in explicit accounting.
"""

import functools
import os

import numpy as np
import pytest

from repro.exec import (
    CampaignExecutionError,
    ChaosError,
    ChaosPlan,
    ChaosRule,
    ForwardSpec,
    InjectorRecipe,
    ParallelCampaignExecutor,
    chaos_enabled,
)
from repro.exec import chaos as chaos_mod
from repro.faults import TargetSpec
from repro.nn import paper_mlp
from repro.utils.persist import atomic_write_bytes

SPEC = ForwardSpec(p=1e-3, samples=12, chains=2)


@pytest.fixture()
def recipe(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return InjectorRecipe.from_model(
        trained_mlp,
        eval_x,
        eval_y,
        spec=TargetSpec.weights_and_biases(),
        seed=7,
        model_builder=functools.partial(paper_mlp, rng=0),
    )


@pytest.fixture(autouse=True)
def no_leaked_chaos():
    """Every test starts and ends with chaos off (process-global state)."""
    chaos_mod.uninstall()
    yield
    chaos_mod.uninstall()


class TestPlanValidation:
    def test_rate_bounds(self):
        with pytest.raises(ChaosError, match="rate"):
            ChaosRule(rate=1.5)
        with pytest.raises(ChaosError, match="rate"):
            ChaosRule(rate=-0.1)

    def test_count_bounds(self):
        with pytest.raises(ChaosError, match="count"):
            ChaosRule(rate=0.5, count=0)

    def test_unknown_site_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos site"):
            ChaosPlan.from_rates({"worker.meteor": 0.5})

    def test_parse_round_trip(self):
        plan = ChaosPlan.parse("worker.sigkill=0.3,journal.torn_tail=0.5:2", seed=9)
        assert plan.seed == 9
        assert plan.rule("worker.sigkill") == ChaosRule(rate=0.3)
        assert plan.rule("journal.torn_tail") == ChaosRule(rate=0.5, count=2)
        assert ChaosPlan.parse(plan.describe(), seed=9) == plan

    def test_parse_rejects_bad_syntax(self):
        with pytest.raises(ChaosError, match="site=rate"):
            ChaosPlan.parse("worker.sigkill")
        with pytest.raises(ChaosError):
            ChaosPlan.parse("worker.sigkill=lots")

    def test_plan_is_picklable(self):
        import pickle

        plan = ChaosPlan.parse("worker.sigkill=0.3", seed=1)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestDeterminism:
    def test_uniform_is_pure(self):
        a = chaos_mod.chaos_uniform(1, "worker.sigkill", (3, 1))
        b = chaos_mod.chaos_uniform(1, "worker.sigkill", (3, 1))
        assert a == b
        assert 0.0 <= a < 1.0
        assert a != chaos_mod.chaos_uniform(2, "worker.sigkill", (3, 1))
        assert a != chaos_mod.chaos_uniform(1, "worker.hang", (3, 1))

    def test_injector_decisions_replay_exactly(self):
        plan = ChaosPlan.from_rates({"pipe.drop": 0.5}, seed=4)
        first = [chaos_mod.ChaosInjector(plan).should_fire("pipe.drop", key=(i, 1))
                 for i in range(32)]
        second = [chaos_mod.ChaosInjector(plan).should_fire("pipe.drop", key=(i, 1))
                  for i in range(32)]
        assert first == second
        assert any(first) and not all(first)  # rate 0.5 actually discriminates

    def test_count_caps_total_fires(self):
        plan = ChaosPlan.from_rates({"pipe.drop": ChaosRule(rate=1.0, count=2)}, seed=0)
        injector = chaos_mod.ChaosInjector(plan)
        fires = [injector.should_fire("pipe.drop", key=(i, 1)) for i in range(10)]
        assert sum(fires) == 2 and fires[:2] == [True, True]
        assert injector.fired() == {"pipe.drop": 2}
        assert injector.visits() == {"pipe.drop": 10}

    def test_unknown_site_raises_at_decision_time(self):
        injector = chaos_mod.ChaosInjector(ChaosPlan())
        with pytest.raises(ChaosError, match="unknown"):
            injector.should_fire("worker.meteor")


class TestGlobalInstall:
    def test_off_by_default(self):
        assert chaos_mod.active() is None
        assert chaos_mod.should_fire("worker.sigkill") is False

    def test_scoped_enable(self):
        plan = ChaosPlan.from_rates({"pipe.drop": 1.0}, seed=0)
        with chaos_enabled(plan) as injector:
            assert chaos_mod.active() is injector
            assert chaos_mod.active_plan() is plan
            assert chaos_mod.should_fire("pipe.drop", key=0) is True
        assert chaos_mod.active() is None
        assert chaos_mod.should_fire("pipe.drop", key=0) is False

    def test_fired_events_count_into_metrics(self):
        import repro.obs as obs

        plan = ChaosPlan.from_rates({"pipe.drop": 1.0}, seed=0)
        with obs.Session(metrics=True) as session, chaos_enabled(plan):
            chaos_mod.should_fire("pipe.drop", key=0)
            chaos_mod.should_fire("pipe.drop", key=1)
        snapshot = session.metrics.snapshot()
        assert snapshot["counters"]["chaos.fired"] == 2
        assert snapshot["counters"]["chaos.fired.pipe.drop"] == 2


class TestPersistSites:
    def test_disk_full_fires_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "out.json"
        plan = ChaosPlan.from_rates({"disk.full": ChaosRule(rate=1.0, count=1)}, seed=0)
        with chaos_enabled(plan):
            with pytest.raises(OSError, match="No space left"):
                atomic_write_bytes(str(target), b"{}")
            # count exhausted: the retry inside the same plan succeeds
            atomic_write_bytes(str(target), b"{}")
        assert target.read_bytes() == b"{}"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    @pytest.mark.parametrize("site,match", [
        ("persist.fsync", "fsync failed"),
        ("persist.replace", "rename failed"),
    ])
    def test_fsync_and_replace_fail_atomically(self, tmp_path, site, match):
        target = tmp_path / "out.json"
        atomic_write_bytes(str(target), b"old")
        plan = ChaosPlan.from_rates({site: ChaosRule(rate=1.0, count=1)}, seed=0)
        with chaos_enabled(plan):
            with pytest.raises(OSError, match=match):
                atomic_write_bytes(str(target), b"new")
        # the old file survives untouched — that's the atomicity contract
        assert target.read_bytes() == b"old"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_free_when_off(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_bytes(str(target), b"fine")
        assert target.read_bytes() == b"fine"


class TestExecutorChaos:
    def test_sigkill_retries_to_bit_identical_result(self, recipe):
        baseline = ParallelCampaignExecutor(recipe, workers=1).run([SPEC])[0]
        # pick a seed where attempt 1 fires and attempt 2 does not — worker
        # processes are fresh per attempt, so the cap must come from the
        # per-attempt hash, not the (per-process) fire counter
        def fires(seed, attempt):
            return chaos_mod.chaos_uniform(seed, "worker.sigkill", (0, attempt)) < 0.5

        seed = next(s for s in range(1000) if fires(s, 1) and not fires(s, 2))
        plan = ChaosPlan.from_rates({"worker.sigkill": 0.5}, seed=seed)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=3, chaos=plan, start_method="fork"
        )
        result = executor.run([SPEC])[0]
        assert executor.stats.crashes >= 1
        assert executor.stats.retries_by_cause["crash"] >= 1
        assert np.array_equal(baseline.posterior.samples, result.posterior.samples)

    def test_pipe_drop_counts_as_chaos_retry(self, recipe):
        plan = ChaosPlan.from_rates({"pipe.drop": ChaosRule(rate=1.0, count=1)}, seed=0)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=3, chaos=plan, start_method="fork"
        )
        result = executor.run([SPEC])[0]
        assert result is not None
        assert executor.stats.pipe_drops == 1
        assert executor.stats.retries_by_cause["chaos"] == 1

    def test_pipe_duplicate_delivers_exactly_once(self, recipe):
        baseline = ParallelCampaignExecutor(recipe, workers=1).run([SPEC])[0]
        plan = ChaosPlan.from_rates(
            {"pipe.duplicate": ChaosRule(rate=1.0, count=1)}, seed=0
        )
        executor = ParallelCampaignExecutor(
            recipe, workers=2, chaos=plan, start_method="fork"
        )
        result = executor.run([SPEC])[0]
        assert executor.stats.pipe_duplicates == 1
        assert np.array_equal(baseline.posterior.samples, result.posterior.samples)

    def test_poison_task_aborts_by_default(self, recipe):
        plan = ChaosPlan.from_rates({"worker.sigkill": 1.0}, seed=0)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=2, chaos=plan, start_method="fork"
        )
        with pytest.raises(CampaignExecutionError, match="gave up"):
            executor.run([SPEC])

    def test_poison_task_quarantined_under_degrade(self, recipe):
        plan = ChaosPlan.from_rates({"worker.sigkill": 1.0}, seed=0)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=2, on_failure="degrade",
            chaos=plan, start_method="fork",
        )
        results = executor.run([SPEC, SPEC.with_p(2e-3)])
        assert results == [None, None]
        accounting = executor.stats.accounting()
        assert accounting["completed"] == 0
        assert accounting["failed"] == 2
        assert {f["index"] for f in accounting["failed_tasks"]} == {0, 1}
        assert all(f["cause"] == "crash" for f in accounting["failed_tasks"])
        summary = executor.stats.summary()
        assert "failed 2" in summary

    def test_chaos_uninstalled_after_execute(self, recipe):
        plan = ChaosPlan.from_rates({"pipe.drop": 0.1}, seed=0)
        executor = ParallelCampaignExecutor(recipe, workers=1, chaos=plan)
        executor.run([SPEC])
        assert chaos_mod.active() is None

    def test_backoff_delay_is_deterministic(self, recipe):
        executor = ParallelCampaignExecutor(recipe, workers=2, backoff_s=0.1)
        delays = [executor._backoff_delay(0, attempt) for attempt in (1, 2, 3)]
        assert delays == [executor._backoff_delay(0, attempt) for attempt in (1, 2, 3)]
        # exponential envelope with jitter in [0.5, 1.5)
        for attempt, delay in zip((1, 2, 3), delays):
            base = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base
        assert ParallelCampaignExecutor(recipe, workers=2)._backoff_delay(0, 1) == 0.0


class TestConstructorValidation:
    def test_on_failure_validated(self, recipe):
        with pytest.raises(ValueError, match="on_failure"):
            ParallelCampaignExecutor(recipe, workers=1, on_failure="explode")

    def test_backoff_validated(self, recipe):
        with pytest.raises(ValueError, match="backoff"):
            ParallelCampaignExecutor(recipe, workers=1, backoff_s=-1.0)

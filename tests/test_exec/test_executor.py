"""ParallelCampaignExecutor: seed equivalence, crash retry, timeouts, fallback.

The crash/timeout scenarios run real worker processes (fork start method),
simulating worker death with ``os._exit`` inside the recipe's model builder
— the first build attempt kills the worker, later attempts succeed, so a
retried task must still produce the bit-identical campaign.
"""

import functools
import os
import time

import numpy as np
import pytest

from repro.core import BayesianFaultInjector, ProbabilitySweep
from repro.exec import (
    CampaignExecutionError,
    CampaignTask,
    ForwardSpec,
    InjectorRecipe,
    ParallelCampaignExecutor,
)
from repro.faults import TargetSpec
from repro.nn import paper_mlp

P_GRID_13 = tuple(np.logspace(-5, -1, 13))


def _crash_once_builder(marker_path: str):
    """Kill the worker on the first build; behave normally afterwards."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8"):
            pass
        os._exit(3)
    return paper_mlp(rng=0)


def _sleepy_builder(delay_s: float):
    time.sleep(delay_s)
    return paper_mlp(rng=0)


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


@pytest.fixture()
def make_injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval

    def make():
        return BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=7
        )

    return make


class TestRecipe:
    def test_requires_exactly_one_transport(self, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError, match="exactly one"):
            InjectorRecipe(inputs=eval_x, labels=eval_y)
        with pytest.raises(ValueError, match="exactly one"):
            InjectorRecipe(
                inputs=eval_x, labels=eval_y, model=object(), model_builder=lambda: None
            )

    def test_state_only_with_builder(self, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError, match="state"):
            InjectorRecipe(inputs=eval_x, labels=eval_y, model=object(), state={})

    def test_builder_transport_rebuilds_golden_model(self, recipe, make_injector):
        rebuilt = recipe.build()
        assert rebuilt.golden_error == make_injector().golden_error

    def test_embedded_model_transport(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        recipe = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=7
        )
        assert recipe.model is trained_mlp
        assert recipe.build().golden_error >= 0.0


class TestConstruction:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelCampaignExecutor(workers=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelCampaignExecutor(workers=1, timeout_s=0.0)

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelCampaignExecutor(workers=1, max_attempts=0)

    def test_run_requires_a_recipe(self):
        with pytest.raises(ValueError, match="recipe"):
            ParallelCampaignExecutor(workers=1).run([ForwardSpec(p=1e-3)])

    def test_execute_rejects_non_specs(self, recipe):
        task = CampaignTask("forward", recipe)
        with pytest.raises(TypeError, match="CampaignSpec"):
            ParallelCampaignExecutor(workers=1).execute([task])

    def test_empty_task_list(self, recipe):
        assert ParallelCampaignExecutor(recipe, workers=2).execute([]) == []


class TestSequentialPath:
    def test_workers_1_matches_injector_run(self, recipe, make_injector):
        spec = ForwardSpec(p=1e-2, samples=24)
        executor = ParallelCampaignExecutor(recipe, workers=1)
        (via_executor,) = executor.run([spec])
        via_injector = make_injector().run(spec)
        assert np.array_equal(via_executor.chains.matrix(), via_injector.chains.matrix())
        assert not executor.stats.parallel

    def test_recipe_built_once_across_tasks(self, recipe):
        specs = [ForwardSpec(p=p, samples=8) for p in (1e-3, 1e-2)]
        executor = ParallelCampaignExecutor(recipe, workers=1)
        results = executor.run(specs)
        assert [r.flip_probability for r in results] == [1e-3, 1e-2]


class TestSeedEquivalence:
    def test_13_point_sweep_bit_identical_at_workers_4(self, recipe, make_injector):
        """The acceptance criterion: parallel sweep == sequential sweep, bitwise."""
        sequential = ProbabilitySweep(make_injector(), p_values=P_GRID_13, samples=16).run()
        executor = ParallelCampaignExecutor(recipe, workers=4)
        parallel = ProbabilitySweep(
            make_injector(), p_values=P_GRID_13, samples=16, executor=executor
        ).run()
        assert executor.stats.parallel and executor.stats.tasks == 13
        for seq_pt, par_pt in zip(sequential.points, parallel.points):
            seq_row = seq_pt.campaign.summary_row()
            par_row = par_pt.campaign.summary_row()
            # duration_s (and the rate derived from it) is wall-clock and
            # legitimately differs between runs
            for row in (seq_row, par_row):
                row.pop("duration_s")
                row.pop("evals_per_s")
            assert seq_row == par_row
            assert np.array_equal(
                seq_pt.campaign.chains.matrix(), par_pt.campaign.chains.matrix()
            )
            assert np.array_equal(
                seq_pt.campaign.posterior.samples, par_pt.campaign.posterior.samples
            )

    def test_task_order_is_preserved(self, recipe):
        p_values = (1e-4, 1e-3, 1e-2, 1e-1)
        executor = ParallelCampaignExecutor(recipe, workers=4)
        results = executor.run([ForwardSpec(p=p, samples=8) for p in p_values])
        assert [r.flip_probability for r in results] == list(p_values)


class TestLayerwiseParallel:
    def test_layerwise_parallel_matches_sequential(self, trained_mlp, moons_eval):
        from repro.core import LayerwiseCampaign

        eval_x, eval_y = moons_eval
        sequential = LayerwiseCampaign(
            trained_mlp, eval_x, eval_y, p=1e-2, samples=16, seed=3
        ).run()
        parallel = LayerwiseCampaign(
            trained_mlp, eval_x, eval_y, p=1e-2, samples=16, seed=3,
            executor=ParallelCampaignExecutor(workers=2),
            model_builder=functools.partial(paper_mlp, rng=0),
        ).run()
        assert [r.layer for r in parallel.results] == [r.layer for r in sequential.results]
        for seq_r, par_r in zip(sequential.results, parallel.results):
            assert seq_r.mean_error == par_r.mean_error
            assert seq_r.parameter_count == par_r.parameter_count
            assert np.array_equal(
                seq_r.campaign.chains.matrix(), par_r.campaign.chains.matrix()
            )


class TestFaultTolerance:
    def test_worker_crash_is_retried(self, trained_mlp, moons_eval, tmp_path, make_injector):
        eval_x, eval_y = moons_eval
        crashy = InjectorRecipe.from_model(
            trained_mlp,
            eval_x,
            eval_y,
            spec=TargetSpec.weights_and_biases(),
            seed=7,
            model_builder=functools.partial(_crash_once_builder, str(tmp_path / "marker")),
        )
        spec = ForwardSpec(p=1e-2, samples=16)
        executor = ParallelCampaignExecutor(crashy, workers=2, max_attempts=3)
        (result,) = executor.run([spec])
        assert executor.stats.crashes >= 1
        assert executor.stats.retries >= 1
        # the retried campaign is still bit-identical to an untroubled run
        reference = make_injector().run(spec)
        assert np.array_equal(result.chains.matrix(), reference.chains.matrix())

    def test_attempts_are_bounded(self, trained_mlp, moons_eval, tmp_path):
        eval_x, eval_y = moons_eval

        def always_crash():
            os._exit(3)

        doomed = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7, model_builder=always_crash
        )
        executor = ParallelCampaignExecutor(doomed, workers=2, max_attempts=2)
        with pytest.raises(CampaignExecutionError, match="gave up after 2"):
            executor.run([ForwardSpec(p=1e-2, samples=8)])

    def test_timeout_terminates_and_raises(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        sleepy = InjectorRecipe.from_model(
            trained_mlp,
            eval_x,
            eval_y,
            seed=7,
            model_builder=functools.partial(_sleepy_builder, 30.0),
        )
        executor = ParallelCampaignExecutor(
            sleepy, workers=2, timeout_s=0.25, max_attempts=2
        )
        started = time.perf_counter()
        with pytest.raises(CampaignExecutionError, match="timed out"):
            executor.run([ForwardSpec(p=1e-2, samples=8)])
        assert time.perf_counter() - started < 10.0
        assert executor.stats.timeouts == 2

    def test_deterministic_campaign_errors_propagate_without_retry(
        self, trained_mlp, moons_eval
    ):
        eval_x, eval_y = moons_eval
        misaligned = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y[:-1], seed=7,
            model_builder=functools.partial(paper_mlp, rng=0),
        )
        executor = ParallelCampaignExecutor(misaligned, workers=2, max_attempts=3)
        with pytest.raises(CampaignExecutionError, match="failed in worker"):
            executor.run([ForwardSpec(p=1e-2, samples=8)])
        assert executor.stats.retries == 0


class TestRetryAccounting:
    """Satellite: retries broken out by cause, with exact metrics parity."""

    def test_crash_retries_attributed_to_cause(self, trained_mlp, moons_eval, tmp_path):
        eval_x, eval_y = moons_eval
        crashy = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7,
            model_builder=functools.partial(_crash_once_builder, str(tmp_path / "m")),
        )
        executor = ParallelCampaignExecutor(crashy, workers=2, max_attempts=3)
        executor.run([ForwardSpec(p=1e-2, samples=16)])
        stats = executor.stats
        assert stats.retries_by_cause["crash"] >= 1
        assert stats.retries_by_cause["timeout"] == 0
        assert stats.retries_by_cause["chaos"] == 0
        assert stats.retries == sum(stats.retries_by_cause.values())
        assert "retries" in stats.summary() and "crash" in stats.summary()

    def test_timeout_retries_attributed_to_cause(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        sleepy = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7,
            model_builder=functools.partial(_sleepy_builder, 30.0),
        )
        executor = ParallelCampaignExecutor(sleepy, workers=2, timeout_s=0.25, max_attempts=2)
        with pytest.raises(CampaignExecutionError):
            executor.run([ForwardSpec(p=1e-2, samples=8)])
        assert executor.stats.retries_by_cause["timeout"] == 1
        assert executor.stats.retries == 1

    def test_metrics_match_stats_exactly(self, trained_mlp, moons_eval, tmp_path):
        import repro.obs as obs

        eval_x, eval_y = moons_eval
        crashy = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7,
            model_builder=functools.partial(_crash_once_builder, str(tmp_path / "m")),
        )
        executor = ParallelCampaignExecutor(crashy, workers=2, max_attempts=3)
        with obs.Session(metrics=True) as session:
            executor.run([ForwardSpec(p=1e-2, samples=16)])
        counters = session.metrics.snapshot()["counters"]
        stats = executor.stats
        assert counters["executor.retries"] == stats.retries
        for cause, count in stats.retries_by_cause.items():
            assert counters.get(f"executor.retries.{cause}", 0) == count
        assert counters["executor.crashes"] == stats.crashes
        assert counters.get("executor.failed", 0) == stats.failed == 0


class TestDegradedExecution:
    def test_degrade_quarantines_instead_of_aborting(self, trained_mlp, moons_eval, recipe):
        eval_x, eval_y = moons_eval

        def always_crash():
            os._exit(3)

        doomed = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7, model_builder=always_crash
        )
        good_spec = ForwardSpec(p=1e-2, samples=12)
        executor = ParallelCampaignExecutor(
            workers=2, max_attempts=2, on_failure="degrade"
        )
        results = executor.execute(
            [CampaignTask(good_spec, recipe), CampaignTask(good_spec, doomed)]
        )
        assert results[0] is not None and results[1] is None
        accounting = executor.stats.accounting()
        assert accounting["tasks"] == 2
        assert accounting["completed"] == 1 and accounting["failed"] == 1
        (failure,) = accounting["failed_tasks"]
        assert failure["index"] == 1 and failure["cause"] == "crash"
        assert failure["attempts"] == 2

    def test_degrade_sequential_deterministic_error(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        misaligned = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y[:-1], seed=7,
            model_builder=functools.partial(paper_mlp, rng=0),
        )
        executor = ParallelCampaignExecutor(misaligned, workers=1, on_failure="degrade")
        results = executor.run([ForwardSpec(p=1e-2, samples=8)])
        assert results == [None]
        (failure,) = executor.stats.failed_tasks
        assert failure.cause == "error" and failure.attempts == 1

    def test_degraded_sweep_reports_failed_points(self, trained_mlp, moons_eval):
        from repro.core import BayesianFaultInjector, ProbabilitySweep
        from repro.exec import ChaosPlan

        eval_x, eval_y = moons_eval
        recipe = InjectorRecipe.from_model(
            trained_mlp, eval_x, eval_y, seed=7,
            model_builder=functools.partial(paper_mlp, rng=0),
        )
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=7)
        # every worker attempt dies: all points fail, accounting must tile
        plan = ChaosPlan.from_rates({"worker.sigkill": 1.0}, seed=0)
        executor = ParallelCampaignExecutor(
            recipe, workers=2, max_attempts=2, on_failure="degrade", chaos=plan,
            start_method="fork",
        )
        sweep = ProbabilitySweep(
            injector, p_values=(1e-3, 1e-2), spec=ForwardSpec(p=1e-3, samples=8),
            executor=executor,
        ).run()
        assert sweep.degraded and not sweep.points
        accounting = sweep.accounting()
        assert accounting["points"] == 2
        assert accounting["completed"] == 0 and accounting["failed"] == 2
        assert [entry["p"] for entry in accounting["failed_points"]] == [1e-3, 1e-2]
        assert all(entry["cause"] == "crash" for entry in accounting["failed_points"])

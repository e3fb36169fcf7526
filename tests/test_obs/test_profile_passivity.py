"""Profiling is strictly passive: campaign results are bit-identical with
the profiler on or off, sequentially and across a worker pool."""

import numpy as np

import repro.obs as obs
from repro.exec import ForwardSpec, McmcSpec, ParallelCampaignExecutor


def _comparable(result) -> dict:
    """A campaign result's full payload minus wall-clock-dependent fields."""
    payload = result.to_dict()
    payload.pop("duration_s", None)
    payload.pop("metrics", None)
    summary = dict(payload.get("summary") or {})
    summary.pop("duration_s", None)
    summary.pop("evals_per_s", None)
    payload["summary"] = summary
    return payload


class TestSequentialPassivity:
    def test_forward_campaign_bit_identical_under_profiling(self, make_injector):
        spec = ForwardSpec(p=1e-3, samples=30, chains=2)
        bare = make_injector().run(spec)
        with obs.Session(profiler=True) as session:
            profiled = make_injector().run(spec)
        assert session.profiler.ops  # profiling actually happened
        assert _comparable(bare) == _comparable(profiled)
        assert np.array_equal(bare.chains.matrix(), profiled.chains.matrix())

    def test_mcmc_campaign_bit_identical_under_profiling(self, make_injector):
        spec = McmcSpec(p=5e-3, chains=2, steps=25)
        bare = make_injector().run(spec)
        with obs.Session(profiler=True):
            profiled = make_injector().run(spec)
        assert _comparable(bare) == _comparable(profiled)
        assert np.array_equal(bare.chains.matrix(), profiled.chains.matrix())


class TestParallelPassivity:
    def test_parallel_execution_bit_identical_under_profiling(self, recipe):
        specs = [ForwardSpec(p=p, samples=20, chains=2) for p in (1e-4, 1e-3, 1e-2)]
        bare = ParallelCampaignExecutor(recipe, workers=2).run(specs)
        with obs.Session(profiler=True):
            profiled = ParallelCampaignExecutor(recipe, workers=2).run(specs)
        for before, after in zip(bare, profiled):
            assert _comparable(before) == _comparable(after)
            assert np.array_equal(before.chains.matrix(), after.chains.matrix())

    def test_worker_profiles_merge_into_driver(self, recipe):
        executor = ParallelCampaignExecutor(recipe, workers=2)
        with obs.Session(profiler=True) as session:
            executor.run([ForwardSpec(p=1e-3, samples=15, chains=1)])
        profiler = session.profiler
        # worker-side op and phase samples arrived over the result pipe
        assert profiler.ops, "expected merged worker op counters"
        assert any(path.startswith("campaign.forward") for path in profiler.phases)
        if executor.stats.parallel:
            # journal-less run: the driver itself ran no tensor ops
            assert profiler.ops["matmul"].calls > 0

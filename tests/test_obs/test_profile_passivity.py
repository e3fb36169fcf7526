"""Profiling is strictly passive: campaign results are bit-identical with
the profiler on or off, sequentially and across a worker pool."""

import numpy as np

import repro.obs as obs
from repro.core import BayesianFaultInjector
from repro.exec import ForwardSpec, McmcSpec, ParallelCampaignExecutor
from repro.faults import TargetSpec
from repro.nn import Conv2d


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


class TestEngineLayerBilling:
    def test_every_conv_from_the_faulted_layer_on_is_billed(self, tiny_resnet, tiny_images):
        """The segment engine runs convs outside ``Module.__call__``; each is still billed."""
        x, y = tiny_images
        layer = "stages.1.0.conv2"
        spec = ForwardSpec(p=1e-2, samples=8, chains=1)

        def make():
            return BayesianFaultInjector(tiny_resnet, x, y, spec=TargetSpec.single_layer(layer), seed=3)

        bare = make().run(spec)
        injector = make()
        engine = injector._engine()  # verifies the chain before profiling starts
        with obs.Session(profiler=True) as session:
            profiled = injector.run(spec)
        assert _comparable(bare) == _comparable(profiled)
        assert np.array_equal(bare.chains.matrix(), profiled.chains.matrix())

        downstream = [step.name for step in engine.steps[engine.cut + 1:]]
        convs = [
            name
            for name, module in tiny_resnet.named_modules()
            if isinstance(module, Conv2d) and any(name.startswith(step + ".") for step in downstream)
        ]
        assert len(convs) > 5
        for name in (layer, *convs):
            stats = session.profiler.layers[name]
            assert stats.calls > 0 and stats.forward_self_s > 0, name


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

"""Experiment drivers: sweeps (Figs. 2/4), layerwise (Fig. 3), boundary (Fig. 1③)."""

import numpy as np
import pytest

from repro.core import (
    BayesianFaultInjector,
    DecisionBoundaryAnalysis,
    GoldenTrace,
    LayerwiseCampaign,
    ProbabilitySweep,
)
from repro.core.layerwise import parameterised_layers
from repro.exec import ForwardSpec, InjectorRecipe, McmcSpec, StratifiedSpec
from repro.faults import BernoulliBitFlipModel, TargetSpec
from repro.nn.models import resnet18_cifar_small


@pytest.fixture()
def injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval
    return BayesianFaultInjector(
        trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )


class TestProbabilitySweep:
    def test_default_grid_is_paper_range(self, injector):
        sweep = ProbabilitySweep(injector)
        assert sweep.p_values[0] == pytest.approx(1e-5)
        assert sweep.p_values[-1] == pytest.approx(1e-1)

    def test_run_produces_point_per_p(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-4, -1, 5)), samples=40
        ).run()
        assert len(sweep.points) == 5
        assert len(sweep.table()) == 5

    def test_two_regimes_found_on_real_sweep(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=tuple(np.logspace(-5, -1, 9)), samples=80
        ).run()
        fit = sweep.fit_regimes()
        assert fit.has_two_regimes  # the paper's finding F2

    def test_stratified_method(self, injector):
        sweep = ProbabilitySweep(
            injector,
            p_values=tuple(np.logspace(-5, -3, 5)),
            spec=StratifiedSpec(p=1e-5, samples_per_stratum=5),
        ).run()
        assert all(pt.campaign.method == "stratified" for pt in sweep.points)

    def test_mcmc_method(self, injector):
        sweep = ProbabilitySweep(
            injector, p_values=(1e-3, 1e-2, 1e-1), spec=McmcSpec(p=1e-3, chains=2, steps=20)
        ).run()
        assert all(pt.campaign.completeness is not None for pt in sweep.points)

    def test_accessors_before_run_raise(self, injector):
        sweep = ProbabilitySweep(injector)
        with pytest.raises(RuntimeError):
            sweep.errors()

    def test_validation(self, injector):
        with pytest.raises(ValueError):
            ProbabilitySweep(injector, p_values=(0.1, 0.01))  # not increasing
        with pytest.raises(ValueError):
            ProbabilitySweep(injector, p_values=(0.0, 0.1))
        with pytest.raises(TypeError):
            ProbabilitySweep(injector, method="exact")

    def test_default_executor_runs_a_recipe_of_the_sweeps_injector(self, injector, monkeypatch):
        built = []
        build = InjectorRecipe.build

        def spy(recipe, *args):
            built.append(recipe)
            return build(recipe, *args)

        monkeypatch.setattr(InjectorRecipe, "build", spy)
        sweep = ProbabilitySweep(injector, p_values=(1e-3, 1e-2, 5e-2), samples=8).run()
        assert sweep.executor.workers == 1 and sweep.executor.stats.tasks == 3
        (recipe,) = built  # one injector serves every point
        assert recipe.model is injector.model and recipe.inputs is injector.inputs
        assert (recipe.seed, recipe.target_spec, recipe.fast) == (
            injector.seed, injector.spec, injector.fast
        )
        for point in sweep.points:
            direct = injector.run(ForwardSpec(p=point.p, samples=8))
            assert np.array_equal(point.campaign.posterior.samples, direct.posterior.samples)


class TestLayerwise:
    def test_parameterised_layers_of_mlp(self, trained_mlp):
        assert parameterised_layers(trained_mlp) == ["layers.0", "layers.2"]

    def test_campaign_per_layer(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        campaign = LayerwiseCampaign(
            trained_mlp, eval_x, eval_y, p=1e-2, samples=40, seed=0
        ).run()
        assert [r.layer for r in campaign.results] == ["layers.0", "layers.2"]
        assert all(r.parameter_count > 0 for r in campaign.results)

    def test_depth_correlation_keys(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet)[:5])
        campaign = LayerwiseCampaign(
            tiny_resnet, x, y, p=1e-3, samples=10, layers=layers, seed=0
        ).run()
        stats = campaign.depth_correlation()
        assert set(stats) == {"spearman_rho", "spearman_p", "kendall_tau", "kendall_p"}
        assert -1 <= stats["spearman_rho"] <= 1

    def test_results_required_before_stats(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        campaign = LayerwiseCampaign(trained_mlp, eval_x, eval_y, seed=0)
        with pytest.raises(RuntimeError):
            campaign.depth_correlation()

    def test_validation(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError):
            LayerwiseCampaign(trained_mlp, eval_x, eval_y, p=0.0)


def as_bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_same_campaign(left, right):
    assert left.mean_error == right.mean_error
    assert left.hazard.rows == right.hazard.rows
    assert left.hazard.hazard_rows == right.hazard.hazard_rows
    for a, b in zip(left.chains.chains, right.chains.chains, strict=True):
        assert np.array_equal(as_bits(a.values), as_bits(b.values))
        assert np.array_equal(a.flips, b.flips)


class TestLayerwiseSharedTrace:
    """An in-process layerwise run builds one golden trace for all its layers."""

    @pytest.fixture()
    def clean_work(self, monkeypatch, tiny_resnet):
        """Counts of clean ``model(x)`` forwards and of chain verifications."""
        counts = {"forward": 0, "chain": 0}

        def count_forward(*_):
            counts["forward"] += 1

        verified_chain = GoldenTrace._verified_chain

        def count_chain(trace):
            counts["chain"] += 1
            return verified_chain(trace)

        monkeypatch.setattr(GoldenTrace, "_verified_chain", count_chain)
        handle = tiny_resnet.register_forward_hook(count_forward)
        yield counts
        handle.remove()

    @pytest.mark.parametrize("n_layers", [1, 4, 12])
    def test_one_forward_and_one_chain_whatever_the_layer_count(
        self, clean_work, tiny_resnet, tiny_images, n_layers
    ):
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet)[:n_layers])
        campaign = LayerwiseCampaign(
            tiny_resnet, x, y, p=1e-3, samples=4, chains=1, layers=layers, seed=2
        ).run()
        assert len(campaign.results) == n_layers
        assert clean_work == {"forward": 1, "chain": 1}

    def test_builder_transport_builds_one_model_and_one_trace(
        self, monkeypatch, tiny_resnet, tiny_images
    ):
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet)[:6])
        kwargs = dict(p=1e-2, samples=4, chains=1, layers=layers, seed=2)
        embedded = LayerwiseCampaign(tiny_resnet, x, y, **kwargs).run()
        builds, traces = [], []

        def builder():
            builds.append(1)
            return resnet18_cifar_small(num_classes=10, rng=0)

        init = GoldenTrace.__init__

        def counting_init(trace, model, inputs):
            traces.append(model)
            init(trace, model, inputs)

        monkeypatch.setattr(GoldenTrace, "__init__", counting_init)
        shipped = LayerwiseCampaign(tiny_resnet, x, y, model_builder=builder, **kwargs).run()
        assert len(builds) == 1 and len(traces) == 1 and traces[0] is not tiny_resnet
        for left, right in zip(embedded.results, shipped.results, strict=True):
            assert_same_campaign(left.campaign, right.campaign)

    def test_bit_identical_to_independent_injectors_and_standard_path(
        self, tiny_resnet, tiny_images
    ):
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet)[::6])
        kwargs = dict(p=1e-2, samples=6, chains=2, layers=layers, seed=4)
        shared = LayerwiseCampaign(tiny_resnet, x, y, **kwargs).run()
        standard = LayerwiseCampaign(tiny_resnet, x, y, fast=False, **kwargs).run()
        spec = ForwardSpec(p=1e-2, samples=6, chains=2)
        for depth, layer in enumerate(layers):
            independent = BayesianFaultInjector(
                tiny_resnet, x, y, spec=TargetSpec.single_layer(layer), seed=4 + depth
            ).run(spec)
            assert_same_campaign(shared.results[depth].campaign, independent)
            assert_same_campaign(shared.results[depth].campaign, standard.results[depth].campaign)

    def test_layers_drawing_only_golden_rows(self, tiny_resnet, tiny_images):
        """At small p whole layers draw no flip; their rows come from the trace."""
        x, y = tiny_images
        layers = tuple(parameterised_layers(tiny_resnet))
        kwargs = dict(p=1e-5, samples=4, chains=2, layers=layers, seed=6)
        shared = LayerwiseCampaign(tiny_resnet, x, y, **kwargs).run()
        standard = LayerwiseCampaign(tiny_resnet, x, y, fast=False, **kwargs).run()
        live = [
            np.concatenate([chain.flips for chain in result.campaign.chains.chains]) > 0
            for result in shared.results
        ]
        # the regime holds all-golden layers, all-live ones and mixed chunks
        assert any(not rows.any() for rows in live)
        assert any(rows.all() for rows in live)
        assert any(rows.any() and not rows.all() for rows in live)
        spec = ForwardSpec(p=1e-5, samples=4, chains=2)
        for depth, layer in enumerate(layers):
            independent = BayesianFaultInjector(
                tiny_resnet, x, y, spec=TargetSpec.single_layer(layer), seed=6 + depth
            ).run(spec)
            assert_same_campaign(shared.results[depth].campaign, independent)
            assert_same_campaign(shared.results[depth].campaign, standard.results[depth].campaign)


class TestBoundary:
    def test_map_shapes(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=20,
            fault_model=BernoulliBitFlipModel(1e-3), seed=0,
        )
        bmap = analysis.run(samples=20)
        assert bmap.flip_probability.shape == (20, 20)
        assert bmap.golden_prediction.shape == (20, 20)
        assert np.all((bmap.flip_probability >= 0) & (bmap.flip_probability <= 1))

    def test_boundary_distance_zero_on_boundary_cells(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=24, seed=0
        )
        bmap = analysis.run(samples=5)
        assert bmap.boundary_distance.min() == 0.0
        assert bmap.boundary_distance.max() > 1.0

    def test_errors_concentrate_near_boundary(self, trained_mlp):
        """Finding F1: flip probability decays with boundary distance."""
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=30,
            fault_model=BernoulliBitFlipModel(1e-3), seed=0,
        )
        bmap = analysis.run(samples=60)
        corr = bmap.distance_correlation()
        assert corr["spearman_rho"] < -0.1
        assert corr["spearman_p"] < 0.01
        bands = bmap.band_summary(4)
        assert bands[0]["mean_flip_probability"] > bands[-1]["mean_flip_probability"]

    def test_log_flip_probability_finite(self, trained_mlp):
        analysis = DecisionBoundaryAnalysis(
            trained_mlp, bounds=(-1.5, 2.5, -1.2, 1.7), resolution=16, seed=0
        )
        bmap = analysis.run(samples=10)
        assert np.isfinite(bmap.log_flip_probability()).all()

    def test_validation(self, trained_mlp):
        with pytest.raises(ValueError):
            DecisionBoundaryAnalysis(trained_mlp, bounds=(1, 0, 0, 1))
        with pytest.raises(ValueError):
            DecisionBoundaryAnalysis(trained_mlp, bounds=(0, 1, 0, 1), resolution=2)
        analysis = DecisionBoundaryAnalysis(trained_mlp, bounds=(0, 1, 0, 1), resolution=8, seed=0)
        with pytest.raises(ValueError):
            analysis.run(samples=0)
        with pytest.raises(ValueError):
            bands = analysis.run(samples=2).band_summary(1)

"""BayesianFaultInjector.run(spec): dispatch, timing, and the sweep spec API."""

import numpy as np
import pytest

from repro.core import BayesianFaultInjector, ProbabilitySweep
from repro.exec import ForwardSpec, McmcSpec, StratifiedSpec, TemperedSpec
from repro.faults import TargetSpec


@pytest.fixture()
def make_injector(trained_mlp, moons_eval):
    eval_x, eval_y = moons_eval

    def make(seed=0):
        return BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=seed
        )

    return make


class TestRunDispatch:
    def test_rejects_non_specs(self, make_injector):
        with pytest.raises(TypeError, match="CampaignSpec"):
            make_injector().run("forward")

    def test_forward_spec_matches_wrapper(self, make_injector):
        via_wrapper = make_injector().forward_campaign(1e-2, samples=40, chains=2)
        via_spec = make_injector().run(ForwardSpec(p=1e-2, samples=40, chains=2))
        assert np.array_equal(via_wrapper.chains.matrix(), via_spec.chains.matrix())
        assert via_wrapper.mean_error == via_spec.mean_error

    def test_mcmc_spec_matches_wrapper(self, make_injector):
        via_wrapper = make_injector().mcmc_campaign(1e-2, chains=2, steps=30)
        via_spec = make_injector().run(McmcSpec(p=1e-2, chains=2, steps=30))
        assert np.array_equal(via_wrapper.chains.matrix(), via_spec.chains.matrix())

    def test_tempered_spec_returns_weighted_pair(self, make_injector):
        outcome = make_injector().run(TemperedSpec(p=1e-2, beta=5.0, chains=2, steps=30))
        campaign, weighted = outcome
        assert campaign.method.startswith("tempered")
        assert 0.0 <= weighted <= 1.0

    def test_stratified_spec_runs(self, make_injector):
        campaign = make_injector().run(StratifiedSpec(p=1e-4, samples_per_stratum=5))
        assert campaign.method == "stratified"

    def test_duration_recorded(self, make_injector):
        campaign = make_injector().run(ForwardSpec(p=1e-2, samples=30))
        assert campaign.duration_s > 0.0
        row = campaign.summary_row()
        assert row["duration_s"] == campaign.duration_s
        assert campaign.to_dict()["duration_s"] == campaign.duration_s
        assert np.isfinite(campaign.evaluations_per_second)


class TestSweepSpecAPI:
    def test_default_is_forward_spec(self, make_injector):
        sweep = ProbabilitySweep(make_injector(), p_values=(1e-3, 1e-2), samples=20)
        assert isinstance(sweep.spec, ForwardSpec)
        assert sweep.spec.samples == 20

    def test_template_spec_rebound_per_point(self, make_injector):
        sweep = ProbabilitySweep(
            make_injector(), p_values=(1e-3, 1e-2), spec=ForwardSpec(p=0.5, samples=20)
        )
        assert [s.p for s in map(sweep.spec_for, sweep.p_values)] == [1e-3, 1e-2]

    def test_spec_factory_called_per_point(self, make_injector):
        factory = lambda p: ForwardSpec(p=p, samples=10 if p < 5e-3 else 20)
        sweep = ProbabilitySweep(make_injector(), p_values=(1e-3, 1e-2), spec=factory).run()
        assert sweep.points[0].campaign.total_evaluations == 10
        assert sweep.points[1].campaign.total_evaluations == 20

    def test_sweep_reports_durations(self, make_injector):
        sweep = ProbabilitySweep(make_injector(), p_values=(1e-3, 1e-2), samples=20).run()
        assert (sweep.durations() > 0).all()
        assert all(row["duration_s"] > 0 for row in sweep.table())

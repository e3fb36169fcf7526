"""CampaignSpec family: construction-time validation and dispatch metadata."""

import pickle

import pytest

from repro.exec import (
    AdaptiveSpec,
    CampaignSpec,
    ForwardSpec,
    McmcSpec,
    StratifiedSpec,
    TemperedSpec,
    TemperingSpec,
)

ALL_SPECS = (ForwardSpec, McmcSpec, TemperedSpec, TemperingSpec, AdaptiveSpec, StratifiedSpec)


class TestValidation:
    def test_base_class_is_abstract(self):
        with pytest.raises(TypeError):
            CampaignSpec(p=1e-3)

    @pytest.mark.parametrize("spec_type", ALL_SPECS)
    @pytest.mark.parametrize("p", [0.0, -1e-3, 1.5])
    def test_p_out_of_range_rejected(self, spec_type, p):
        with pytest.raises(ValueError, match="flip probability"):
            spec_type(p=p)

    @pytest.mark.parametrize("spec_type", ALL_SPECS)
    def test_valid_p_accepted(self, spec_type):
        assert spec_type(p=1e-3).p == 1e-3

    def test_forward_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ForwardSpec(p=1e-3, samples=0)
        with pytest.raises(ValueError):
            ForwardSpec(p=1e-3, chains=0)

    def test_mcmc_proposal_weights(self):
        with pytest.raises(ValueError, match="toggle_weight/resample_weight"):
            McmcSpec(p=1e-3, toggle_weight=0.0, resample_weight=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            McmcSpec(p=1e-3, toggle_weight=-0.1)

    def test_mcmc_discard_fraction_range(self):
        with pytest.raises(ValueError):
            McmcSpec(p=1e-3, discard_fraction=1.0)

    def test_tempered_beta_non_negative(self):
        with pytest.raises(ValueError, match="beta"):
            TemperedSpec(p=1e-3, beta=-1.0)

    def test_tempering_needs_a_ladder(self):
        with pytest.raises(ValueError, match="rungs"):
            TemperingSpec(p=1e-3, betas=(0.0,))
        with pytest.raises(ValueError, match="non-negative"):
            TemperingSpec(p=1e-3, betas=(0.0, -5.0))

    def test_adaptive_step_budget_ordering(self):
        with pytest.raises(ValueError, match="max_steps"):
            AdaptiveSpec(p=1e-3, batch_steps=100, max_steps=50)

    def test_stratified_mass_tolerance(self):
        with pytest.raises(ValueError, match="mass_tolerance"):
            StratifiedSpec(p=1e-3, mass_tolerance=0.0)


class TestSpecBehaviour:
    def test_kind_default_stream(self):
        assert ForwardSpec(p=1e-3).stream == "forward"
        assert McmcSpec(p=1e-3).stream == "mcmc"
        assert StratifiedSpec(p=1e-3).stream == "stratified"

    def test_custom_stream_preserved(self):
        assert ForwardSpec(p=1e-3, stream="lane-a").stream == "lane-a"

    def test_numpy_p_normalised_to_float(self):
        # repr(p) feeds RNG stream names, so numpy scalars must not survive
        import numpy as np

        spec = ForwardSpec(p=np.float64(1e-3))
        assert type(spec.p) is float
        assert spec == ForwardSpec(p=1e-3)

    def test_with_p_rebinds_only_p(self):
        template = ForwardSpec(p=1e-3, samples=77, chains=3)
        rebound = template.with_p(1e-2)
        assert rebound.p == 1e-2
        assert rebound.samples == 77 and rebound.chains == 3
        assert template.p == 1e-3  # frozen: original untouched

    def test_with_p_validates(self):
        with pytest.raises(ValueError):
            ForwardSpec(p=1e-3).with_p(2.0)

    @pytest.mark.parametrize("spec_type", ALL_SPECS)
    def test_specs_are_picklable(self, spec_type):
        spec = spec_type(p=1e-3)
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("spec_type", ALL_SPECS)
    def test_kinds_are_distinct(self, spec_type):
        kinds = {s.kind for s in ALL_SPECS}
        assert len(kinds) == len(ALL_SPECS)
        assert spec_type.kind

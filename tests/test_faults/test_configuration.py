"""FaultConfiguration algebra and statistics."""

import numpy as np
import pytest

from repro.faults import (
    BernoulliBitFlipModel,
    BurstBitFlipModel,
    ByteErrorModel,
    FaultConfiguration,
    HeterogeneousBitFlipModel,
    SingleBitFlipModel,
    StuckAtModel,
    TargetSpec,
    resolve_parameter_targets,
)
from repro.nn import paper_mlp
from repro.protect import ProtectedFaultModel, ProtectionScheme


@pytest.fixture(scope="module")
def targets():
    return resolve_parameter_targets(paper_mlp(rng=0), TargetSpec.weights_and_biases())


class TestConstruction:
    def test_sample_covers_all_targets(self, targets, rng):
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.1), rng)
        assert set(cfg.names()) == {name for name, _ in targets}
        for name, param in targets:
            assert cfg.mask(name).shape == param.shape

    def test_empty_configuration(self, targets):
        cfg = FaultConfiguration.empty(targets)
        assert cfg.is_empty()
        assert cfg.total_flips() == 0

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            FaultConfiguration({"w": np.zeros(3, dtype=np.int64)})


SAMPLED_MODELS = {
    "bernoulli": BernoulliBitFlipModel(0.05),
    "bernoulli-lanes": BernoulliBitFlipModel(0.1, bits=(23, 24, 30)),
    "heterogeneous": HeterogeneousBitFlipModel(np.linspace(0.0, 0.2, 32)),
    "burst": BurstBitFlipModel(0.2, burst_length=3),
    "single": SingleBitFlipModel(),
    "byte": ByteErrorModel(),
    "protected": ProtectedFaultModel(
        BernoulliBitFlipModel(0.1),
        ProtectionScheme({"layers.0.weight": frozenset(range(23, 31)), "layers.2.bias": frozenset({31})}),
    ),
}


class TestSampling:
    """``sample`` is the dense per-target draw, in target order, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SAMPLED_MODELS))
    def test_sample_matches_dense_draws_in_target_order(self, targets, name):
        model = SAMPLED_MODELS[name]
        cfg = FaultConfiguration.sample(targets, model, np.random.default_rng(7))
        clone = np.random.default_rng(7)
        for target, param in targets:
            expected = model.for_target(target).sample_mask(param.shape, clone)
            got = cfg.mask(target)
            assert got.dtype == np.uint32
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)
        assert cfg.total_flips() > 0

    def test_value_dependent_model_cannot_be_sampled(self, targets, rng):
        with pytest.raises(NotImplementedError):
            FaultConfiguration.sample(targets, StuckAtModel(1), rng)


class TestAlgebra:
    def test_equality(self, targets, rng):
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.1), rng)
        assert cfg == FaultConfiguration({name: cfg.sparse(name).to_dense() for name in cfg.names()})
        assert cfg != FaultConfiguration.empty(targets)
        assert (cfg == object()) is False or True  # NotImplemented path tolerated


class TestStatistics:
    def test_total_flips_sums_per_target(self, targets, rng):
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.05), rng)
        per_target = cfg.flips_per_target()
        assert cfg.total_flips() == sum(per_target.values())

    def test_flip_positions_counts(self, targets, rng):
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.05), rng)
        positions = cfg.flip_positions()
        assert sum(len(v) for v in positions.values()) == cfg.total_flips()

    def test_log_prob_is_sum_over_targets(self, targets, rng):
        model = BernoulliBitFlipModel(0.05)
        cfg = FaultConfiguration.sample(targets, model, rng)
        expected = sum(model.log_prob_mask(cfg.mask(name)) for name in cfg.names())
        assert cfg.log_prob(model) == pytest.approx(expected)

    def test_repr(self, targets):
        assert "targets=4" in repr(FaultConfiguration.empty(targets))

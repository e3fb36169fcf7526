"""Forward-chain decomposition: bit-identity and target ownership."""

import numpy as np

from repro.core import BayesianFaultInjector
from repro.core.prefix import forward_chain, run_chain
from repro.faults import ConfigurationBlock, FaultConfiguration, TargetSpec
from repro.nn import LeNet
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


def logits_bits(tensor):
    return np.ascontiguousarray(tensor.data).view(np.uint8)


class TestForwardChain:
    def test_mlp_chain_matches_forward(self, trained_mlp, moons_eval):
        x = Tensor(moons_eval[0])
        steps = forward_chain(trained_mlp)
        assert steps is not None
        with no_grad():
            direct = trained_mlp(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_resnet_chain_matches_forward(self, tiny_resnet, tiny_images):
        x = Tensor(tiny_images[0])
        steps = forward_chain(tiny_resnet)
        assert steps is not None
        with no_grad():
            direct = tiny_resnet(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_lenet_chain_matches_forward(self, rng):
        model = LeNet(in_channels=1, image_size=12, rng=0).eval()
        x = Tensor(rng.normal(size=(4, 1, 12, 12)).astype(np.float32))
        steps = forward_chain(model)
        with no_grad():
            direct = model(x)
            chained = run_chain(steps, x)
        assert np.array_equal(logits_bits(direct), logits_bits(chained))

    def test_unsupported_model_returns_none(self):
        class Custom(Module):
            def forward(self, x):  # pragma: no cover - structure only
                return x

        assert forward_chain(Custom()) is None

    def test_owning_step(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        spec = TargetSpec.weights_and_biases(include_layers=("stem.0", "fc"))
        engine = BayesianFaultInjector(tiny_resnet, x, y, spec=spec)._engine()
        assert engine.owners["fc.weight"] == len(engine.steps) - 1
        assert engine.owners["stem.0.weight"] == 0 == engine.cut


class TestChainEdgeCases:
    def test_flatten_step_is_synthetic(self, trained_mlp, moons_eval):
        steps = forward_chain(trained_mlp)
        assert steps[0].module is None and steps[0].name == "<flatten>"
        # The synthetic step owns no parameters and is skipped by ownership
        engine = BayesianFaultInjector(trained_mlp, *moons_eval)._engine()
        assert engine.owners["layers.0.weight"] == 1
        # Flattening an already-2D batch is the identity
        x = Tensor(moons_eval[0])
        assert steps[0](x) is x
        # and a >2D batch reshapes exactly like MLP.forward
        img = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        assert steps[0](img).shape == (2, 12)

    def test_first_segment_fault_runs_with_zero_reuse(self, trained_mlp, moons_eval, rng):
        """A fault in the first real segment leaves nothing to cache, but the
        delta chain path must still run (from the golden input) bit-identically."""
        eval_x, eval_y = moons_eval
        spec = TargetSpec.single_layer("layers.0")
        slow = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8, fast=False)
        fast = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8)
        engine = fast._engine()
        # The static cut sits right at the first faultable segment (only the
        # synthetic flatten precedes it): no parameterized prefix to reuse.
        assert engine.cut == 1
        assert np.array_equal(engine.prefix, eval_x)
        rs = slow.mcmc_campaign(1e-3, chains=2, steps=8)
        rf = fast.mcmc_campaign(1e-3, chains=2, steps=8)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
            assert np.array_equal(cs.accepts, cf.accepts)

    def test_cache_keyed_by_eval_batch(self, trained_mlp, moons_eval):
        """A different evaluation batch needs (and gets) a different prefix."""
        eval_x, eval_y = moons_eval
        spec = TargetSpec.single_layer("layers.2")
        one = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8)
        two = BayesianFaultInjector(
            trained_mlp, eval_x[::-1].copy(), eval_y[::-1].copy(), spec=spec, seed=8
        )
        assert one._engine().cut == two._engine().cut > 0
        assert not np.array_equal(one._engine().prefix, two._engine().prefix)

    def test_batched_evaluator_prefix_tracks_injector_batch(self, trained_mlp, moons_eval):
        """Two injectors over different batches never share prefix activations."""
        from repro.core import BatchedNetworkEvaluator

        eval_x, eval_y = moons_eval
        spec = TargetSpec.single_layer("layers.2")
        inj1 = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=8)
        inj2 = BayesianFaultInjector(
            trained_mlp, eval_x[::-1].copy(), eval_y[::-1].copy(), spec=spec, seed=8
        )
        ev1 = BatchedNetworkEvaluator(inj1)
        ev2 = BatchedNetworkEvaluator(inj2)
        empty = ConfigurationBlock.of([FaultConfiguration.empty(inj1.parameter_targets)])
        with no_grad():
            golden1 = trained_mlp(inj1._x).data
            golden2 = trained_mlp(inj2._x).data
        assert np.array_equal(ev1.evaluate_logits(empty)[0], golden1)
        assert np.array_equal(ev2.evaluate_logits(empty)[0], golden2)
        assert not np.array_equal(golden1, golden2)

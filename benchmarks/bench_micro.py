"""Ablation A3 — micro-benchmarks of the hot paths.

pytest-benchmark timings for the primitives campaign cost is built from:
mask sampling, XOR application, a faulted forward pass, one MCMC step, and
the conv2d kernel.
"""

import numpy as np

from repro.bits import apply_bit_mask, sample_bernoulli_mask
from repro.core import BatchedNetworkEvaluator, BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, ConfigurationBlock, FaultConfiguration, TargetSpec
from repro.mcmc import MetropolisHastingsSampler, SingleBitToggle
from repro.tensor import Tensor, conv2d, no_grad


def test_mask_sampling_small_p(benchmark):
    """Sparse Bernoulli mask draw over 1M floats at p=1e-5."""
    rng = np.random.default_rng(0)
    benchmark(lambda: sample_bernoulli_mask((1_000_000,), 1e-5, rng))


def test_mask_application(benchmark):
    values = np.random.default_rng(1).normal(size=1_000_000).astype(np.float32)
    mask = sample_bernoulli_mask((1_000_000,), 1e-4, np.random.default_rng(2))
    benchmark(lambda: apply_bit_mask(values, mask))


def test_faulted_forward_pass_mlp(benchmark, golden_mlp_moons, moons_eval_batch):
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )
    model = BernoulliBitFlipModel(1e-3)
    statistic = injector.make_statistic(model, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    configuration = FaultConfiguration.sample(injector.parameter_targets, model, rng)
    benchmark(lambda: statistic(configuration))


def test_mcmc_step_cost(benchmark, golden_mlp_moons, moons_eval_batch):
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )
    fault_model = BernoulliBitFlipModel(1e-3)
    sampler = MetropolisHastingsSampler(
        injector.parameter_targets,
        fault_model,
        injector.make_statistic(fault_model, np.random.default_rng(5)),
        SingleBitToggle(injector.parameter_targets),
    )
    rng = np.random.default_rng(6)
    benchmark(lambda: sampler.run(chains=1, steps=10, rng=rng))


def test_batched_campaign_throughput(benchmark, golden_mlp_moons, moons_eval_batch):
    """200 configurations in one segment-engine sweep (vs one-at-a-time in
    test_faulted_forward_pass_mlp × 200)."""
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
    )
    engine = BatchedNetworkEvaluator(injector)
    model = BernoulliBitFlipModel(1e-3)
    rng = np.random.default_rng(8)
    configurations = [
        FaultConfiguration.sample(injector.parameter_targets, model, rng) for _ in range(200)
    ]
    block = ConfigurationBlock.of(configurations)
    benchmark(lambda: engine.evaluate_logits(block))


def test_conv2d_forward(benchmark):
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(16, 16, 12, 12)).astype(np.float32))
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32))

    def run():
        with no_grad():
            return conv2d(x, w, stride=1, padding=1)

    benchmark(run)


def test_resnet_inference(benchmark, golden_resnet_images, resnet_image_eval):
    eval_x, _ = resnet_image_eval
    x = Tensor(eval_x)

    def run():
        with no_grad():
            return golden_resnet_images(x)

    benchmark(run)

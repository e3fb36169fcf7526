"""The three in-process workloads: Fig. 2 sweep, Fig. 3 layerwise, ResNet chains.

Each workload builds its inputs in :meth:`setup` (checkpoint, eval batch,
injectors, one tiny warm-up campaign), runs one timed pass of the paper
experiment in :meth:`run_pass`, and recomputes a seed-chosen part of a pass
on the standard path in :meth:`oracle`. Only public entry points of the
program are called: the CLI workbenches, ``BayesianFaultInjector``,
``ProbabilitySweep``, ``LayerwiseCampaign`` and the chain campaigns.
"""

from __future__ import annotations

import hashlib

import numpy as np

from perf import config


def load_golden(workbench: str, eval_size: int):
    """(model, eval inputs, eval labels), built exactly as the CLI builds them."""
    from repro.cli import WORKBENCHES
    from repro.train import load_checkpoint

    bench = WORKBENCHES[workbench]
    model = bench.build_model()
    load_checkpoint(model, str(config.checkpoint_path(workbench)))
    _, evaluation = bench.build_data(config.TRAIN_SIZE, eval_size)
    inputs, labels = evaluation.arrays()
    return model, inputs[:eval_size], labels[:eval_size]


def campaign(outcome):
    """The ``CampaignResult`` of an outcome (tempered campaigns return a pair)."""
    return outcome[0] if isinstance(outcome, tuple) else outcome


def digest(results) -> str:
    """sha256 over every campaign's chain values and flip counts, in order."""
    hasher = hashlib.sha256()
    for result in results:
        for chain in result.chains.chains:
            hasher.update(np.ascontiguousarray(chain.values, dtype=np.float64).tobytes())
            hasher.update(np.ascontiguousarray(chain.flips, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def identical(left, right) -> bool:
    """Bit-for-bit equality of two campaigns' chain values and flip counts."""
    return digest([left]) == digest([right])


def halfwidth_max(results, mass: float = 0.95) -> float:
    """Worst campaign's central Jeffreys half-width of P(error > golden)."""
    from repro.bayes.intervals import beta_central_interval

    widths = []
    for result in results:
        samples = result.posterior.samples
        n = samples.size
        k = int(np.count_nonzero(samples > result.posterior.golden_error))
        lo, hi = beta_central_interval(0.5 + k, 0.5 + n - k, mass)
        widths.append((hi - lo) / 2.0)
    return float(max(widths))


def p_grid(points: int) -> tuple[float, ...]:
    """The Fig. 2 grid, computed as ``repro sweep`` computes it."""
    return tuple(np.logspace(np.log10(config.P_MIN), np.log10(config.P_MAX), points))


class Fig2Sweep:
    """Paper Fig. 2: full-surface sweep of the image MLP over 13 log-spaced p."""

    name = "fig2-sweep"
    needs_registry = False

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        from repro.core import BayesianFaultInjector
        from repro.exec import ForwardSpec
        from repro.faults import TargetSpec

        self.model, self.inputs, self.labels = load_golden("mlp-images", self.sizes["eval_size"])
        self.target = TargetSpec.weights_and_biases()
        self.injector = BayesianFaultInjector(
            self.model, self.inputs, self.labels, spec=self.target, seed=self.seed
        )
        self.p_values = p_grid(self.sizes["points"])
        self.spec = ForwardSpec(
            p=float(self.p_values[0]), samples=self.sizes["samples"], chains=self.sizes["chains"]
        )
        self.injector.run(ForwardSpec(p=1e-3, samples=4, chains=2))

    @property
    def budget(self) -> int:
        steps = self.sizes["samples"] // self.sizes["chains"]
        return len(self.p_values) * steps * self.sizes["chains"]

    @property
    def campaigns_per_pass(self) -> int:
        return len(self.p_values)

    def run_pass(self) -> list:
        from repro.core import ProbabilitySweep

        sweep = ProbabilitySweep(self.injector, p_values=self.p_values, spec=self.spec).run()
        return [point.campaign for point in sweep.points]

    def oracle(self, results, rng: np.random.Generator) -> tuple[str, bool]:
        from repro.core import BayesianFaultInjector

        index = int(rng.integers(len(self.p_values)))
        p = float(self.p_values[index])
        standard = BayesianFaultInjector(
            self.model, self.inputs, self.labels, spec=self.target, seed=self.seed, fast=False
        ).run(self.spec.with_p(p))
        return f"p={p:.3g} recomputed with fast=False", identical(standard, results[index])


class Fig3Layerwise:
    """Paper Fig. 3: one campaign per parameterised ResNet-18 layer."""

    name = "fig3-layerwise"
    needs_registry = False

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        from repro.core import BayesianFaultInjector
        from repro.core.layerwise import parameterised_layers
        from repro.exec import ForwardSpec
        from repro.faults import TargetSpec

        self.model, self.inputs, self.labels = load_golden("resnet-images", self.sizes["eval_size"])
        self.layers = tuple(parameterised_layers(self.model)[: self.sizes["layers"]])
        BayesianFaultInjector(
            self.model, self.inputs, self.labels,
            spec=TargetSpec.single_layer(self.layers[0]), seed=self.seed,
        ).run(ForwardSpec(p=self.sizes["p"], samples=1, chains=1))

    @property
    def budget(self) -> int:
        return len(self.layers) * self.sizes["samples"]

    @property
    def campaigns_per_pass(self) -> int:
        return len(self.layers)

    def run_pass(self) -> list:
        from repro.core import LayerwiseCampaign

        layerwise = LayerwiseCampaign(
            self.model, self.inputs, self.labels, p=self.sizes["p"],
            samples=self.sizes["samples"], chains=1, layers=self.layers, seed=self.seed,
        ).run()
        return [result.campaign for result in layerwise.results]

    def oracle(self, results, rng: np.random.Generator) -> tuple[str, bool]:
        from repro.core import BayesianFaultInjector
        from repro.exec import ForwardSpec
        from repro.faults import TargetSpec

        depth = int(rng.integers(len(self.layers)))
        layer = self.layers[depth]
        standard = BayesianFaultInjector(
            self.model, self.inputs, self.labels,
            spec=TargetSpec.single_layer(layer), seed=self.seed + depth, fast=False,
        ).run(ForwardSpec(p=self.sizes["p"], samples=self.sizes["samples"], chains=1))
        return f"layer {layer} recomputed with fast=False", identical(standard, results[depth])


class ResnetChains:
    """MCMC and tempered chains on one deep ResNet layer and a shallow+deep pair."""

    name = "resnet-chains"
    #: delta-cache counters ride in campaign digests only while a driver
    #: metrics registry is attached; traced runs attach one for this workload
    needs_registry = True

    def __init__(self, seed: int, sizes: dict) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        from repro.core import BayesianFaultInjector
        from repro.faults import TargetSpec

        self.model, self.inputs, self.labels = load_golden("resnet-images", self.sizes["eval_size"])
        self.deep = BayesianFaultInjector(
            self.model, self.inputs, self.labels,
            spec=TargetSpec.single_layer(config.DEEP_LAYER), seed=self.seed,
        )
        self.pair = BayesianFaultInjector(
            self.model, self.inputs, self.labels,
            spec=TargetSpec.weights_and_biases(include_layers=(config.SHALLOW_LAYER, config.DEEP_LAYER)),
            seed=self.seed,
        )
        for run in self._campaigns(steps=2):
            run()

    def _campaigns(self, steps: int, fast: bool | None = None) -> list:
        p, chains, beta = self.sizes["p"], self.sizes["chains"], self.sizes["beta"]
        return [
            lambda: self.deep.mcmc_campaign(p, chains=chains, steps=steps, fast=fast),
            lambda: self.pair.mcmc_campaign(p, chains=chains, steps=steps, fast=fast),
            lambda: self.pair.tempered_campaign(p, beta=beta, chains=chains, steps=steps, fast=fast),
        ]

    @property
    def budget(self) -> int:
        return 3 * self.sizes["chains"] * self.sizes["steps"]

    @property
    def campaigns_per_pass(self) -> int:
        return 3

    def run_pass(self) -> list:
        return [campaign(run()) for run in self._campaigns(self.sizes["steps"])]

    def oracle(self, results, rng: np.random.Generator) -> tuple[str, bool]:
        """A short twin of one campaign, run fast and standard, must match the pass.

        The twin draws the same streams as the timed campaign, so its
        chains are a bit-exact prefix of the timed chains.
        """
        index = int(rng.integers(3))
        steps = self.sizes["twin_steps"]
        fast = campaign(self._campaigns(steps)[index]())
        standard = campaign(self._campaigns(steps, fast=False)[index]())
        prefix = all(
            np.array_equal(twin.values, timed.values[:steps]) and np.array_equal(twin.flips, timed.flips[:steps])
            for twin, timed in zip(standard.chains.chains, results[index].chains.chains)
        )
        return (
            f"campaign {index} {steps}-step twin recomputed with fast=False",
            identical(fast, standard) and prefix,
        )


IN_PROCESS_WORKLOADS = {cls.name: cls for cls in (Fig2Sweep, Fig3Layerwise, ResnetChains)}

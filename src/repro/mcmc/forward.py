"""Forward (ancestral) sampling: i.i.d. draws from the fault prior.

Because the paper's Bayesian network has no observed downstream evidence —
we want the *push-forward* of the fault prior through the network — exact
i.i.d. sampling from the posterior-of-interest is available by ancestral
sampling. The forward sampler is therefore both the reference estimator
(ground truth for the MH kernels in tests) and the workhorse of plain
campaigns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

import repro.obs as obs
from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.nn.module import Parameter
from repro.utils.rng import spawn_generators

__all__ = ["ForwardSampler"]

#: steps between chain.progress events when a progress sink is attached
PROGRESS_EVERY = 50


class ForwardSampler:
    """Draw fault configurations i.i.d. from the fault model and score them.

    Parameters
    ----------
    targets:
        ``(name, parameter)`` pairs defining the mask space.
    fault_model:
        Prior over masks.
    statistic:
        ``FaultConfiguration → float``; for BDLFI, the classification error
        of the faulted network on an evaluation batch.
    """

    def __init__(
        self,
        targets: list[tuple[str, Parameter]],
        fault_model: FaultModel,
        statistic: Callable[[FaultConfiguration], float],
    ) -> None:
        if not targets:
            raise ValueError("ForwardSampler requires at least one target")
        self.targets = list(targets)
        self.fault_model = fault_model
        self.statistic = statistic

    def run_chain(self, steps: int, rng: np.random.Generator, chain_id: int = 0) -> Chain:
        """One chain of ``steps`` i.i.d. draws."""
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        chain = Chain(chain_id)
        with obs.span("chain.forward", chain_id=chain_id, steps=steps):
            for step in range(steps):
                configuration = FaultConfiguration.sample(self.targets, self.fault_model, rng)
                value = self.statistic(configuration)
                chain.record(value, configuration.total_flips(), accepted=True)
                if obs.listening() and (step + 1) % PROGRESS_EVERY == 0:
                    window = chain.recent(PROGRESS_EVERY)
                    obs.publish(
                        "chain.progress",
                        sampler="forward",
                        chain_id=chain_id,
                        step=step + 1,
                        steps=steps,
                        window_mean=float(window.mean()),
                    )
        return chain

    def run(self, chains: int, steps: int, rng) -> ChainSet:
        """Run ``chains`` independent chains with split random streams."""
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        generators = spawn_generators(rng, chains)
        return ChainSet([self.run_chain(steps, g, chain_id=i) for i, g in enumerate(generators)])

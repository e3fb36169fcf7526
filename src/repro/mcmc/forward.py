"""Forward (ancestral) sampling: i.i.d. draws from the fault prior.

Because the paper's Bayesian network has no observed downstream evidence —
we want the *push-forward* of the fault prior through the network — exact
i.i.d. sampling from the posterior-of-interest is available by ancestral
sampling. The forward sampler is therefore both the reference estimator
(ground truth for the MH kernels in tests) and the workhorse of plain
campaigns.
"""

from __future__ import annotations

from typing import Callable, Sequence

import repro.obs as obs
from repro.faults.configuration import ConfigurationBlock, FaultConfiguration
from repro.faults.model import FaultModel
from repro.mcmc.chain import Chain, ChainSet
from repro.nn.module import Parameter
from repro.utils.rng import spawn_generators

__all__ = ["ForwardSampler"]

#: steps between chain.progress events when a progress sink is attached
PROGRESS_EVERY = 50

#: configurations a chain draws and folds at once; bounds the per-target
#: position temporaries of the fold at large p
BLOCK_ROWS = 64


class ForwardSampler:
    """Draw fault configurations i.i.d. from the fault model and score them.

    Parameters
    ----------
    targets:
        ``(name, parameter)`` pairs defining the mask space.
    fault_model:
        Prior over masks.
    score:
        ``ConfigurationBlock → values``, one value per row in row order;
        for BDLFI, the classification error of the faulted network on an
        evaluation batch. The injector scores a block through the segment
        engine or row by row through the standard statistic; the loop does
        not know which.
    """

    def __init__(
        self,
        targets: list[tuple[str, Parameter]],
        fault_model: FaultModel,
        score: Callable[[ConfigurationBlock], Sequence[float]],
    ) -> None:
        if not targets:
            raise ValueError("ForwardSampler requires at least one target")
        self.targets = list(targets)
        self.fault_model = fault_model
        self.score = score

    def run_chain(self, steps: int, rng, chain_id: int = 0) -> Chain:
        """One chain of ``steps`` i.i.d. draws, scored ``BLOCK_ROWS`` at a time.

        :meth:`FaultConfiguration.sample_block` makes the same RNG calls in
        the same order as one :meth:`FaultConfiguration.sample` per step, so
        the block size never changes what a chain draws.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        chain = Chain(chain_id)
        with obs.span("chain.forward", chain_id=chain_id, steps=steps):
            for start in range(0, steps, BLOCK_ROWS):
                block = FaultConfiguration.sample_block(
                    self.targets, self.fault_model, rng, min(BLOCK_ROWS, steps - start)
                )
                for value, flips in zip(self.score(block), block.flips.tolist()):
                    chain.record(value, flips, accepted=True)
                    if obs.listening() and len(chain) % PROGRESS_EVERY == 0:
                        obs.publish(
                            "chain.progress",
                            sampler="forward",
                            chain_id=chain_id,
                            step=len(chain),
                            steps=steps,
                            window_mean=float(chain.recent(PROGRESS_EVERY).mean()),
                        )
        return chain

    def run(self, chains: int, steps: int, rng) -> ChainSet:
        """Run ``chains`` independent chains with split random streams."""
        if chains <= 0:
            raise ValueError(f"chains must be positive, got {chains}")
        generators = spawn_generators(rng, chains)
        return ChainSet([self.run_chain(steps, g, chain_id=i) for i, g in enumerate(generators)])

"""Proposal kernels over fault-configuration space.

A proposal maps a current :class:`FaultConfiguration` to a candidate plus
the log Hastings correction ``log q(x|x') − log q(x'|x)``.

Candidates are built from sparse masks
(:class:`~repro.faults.sparse.SparseMask`) and share every mask the move
leaves alone with the current state, so a proposal, the delta engine's
diff against the state (:meth:`FaultConfiguration.same_mask`), the block
fold and the log prior all cost O(flips), not O(elements).
"""

from __future__ import annotations

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT, positions_to_sparse
from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.faults.sparse import SparseMask
from repro.nn.module import Parameter

__all__ = ["SingleBitToggle", "BlockResample", "MixtureProposal"]


class SingleBitToggle:
    """Toggle one uniformly chosen bit across all targets (symmetric).

    The canonical local move: slow but honest, and the move whose mixing
    time the completeness experiments measure.
    """

    def __init__(self, targets: list[tuple[str, Parameter]], bits_per_toggle: int = 1) -> None:
        if not targets:
            raise ValueError("SingleBitToggle requires at least one target")
        if bits_per_toggle < 1:
            raise ValueError(f"bits_per_toggle must be >= 1, got {bits_per_toggle}")
        self._names = [name for name, _ in targets]
        self._sizes = np.asarray([param.size for _, param in targets], dtype=np.int64)
        self._shapes = {name: param.shape for name, param in targets}
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes * BITS_PER_FLOAT)])
        self.bits_per_toggle = bits_per_toggle

    @property
    def total_bits(self) -> int:
        return int(self._offsets[-1])

    def propose(
        self, state: FaultConfiguration, rng: np.random.Generator
    ) -> tuple[FaultConfiguration, float]:
        positions = rng.choice(self.total_bits, size=self.bits_per_toggle, replace=False)
        masks = {name: state.sparse(name) for name in self._names}
        for pos in np.sort(positions):
            target_idx = int(np.searchsorted(self._offsets, pos, side="right") - 1)
            name = self._names[target_idx]
            local = int(pos - self._offsets[target_idx])
            masks[name] = masks[name].xor(SparseMask(self._shapes[name], *positions_to_sparse([local])))
        return FaultConfiguration(masks), 0.0  # symmetric


class BlockResample:
    """Resample one uniformly chosen target's mask from the fault model.

    Because the fault model's bits are independent, this is a conditional-
    prior (Gibbs) move for the prior target (β = 0): the Hastings correction
    exactly cancels the prior ratio, so acceptance is 1. For tempered
    targets (β > 0) it behaves as an independence proposal on the block.
    """

    def __init__(self, targets: list[tuple[str, Parameter]], fault_model: FaultModel) -> None:
        if not targets:
            raise ValueError("BlockResample requires at least one target")
        self._targets = list(targets)
        self.fault_model = fault_model

    def propose(
        self, state: FaultConfiguration, rng: np.random.Generator
    ) -> tuple[FaultConfiguration, float]:
        index = int(rng.integers(0, len(self._targets)))
        name, param = self._targets[index]
        target_model = self.fault_model.for_target(name)
        # the same draws as sample_mask, kept as positions
        positions = target_model.sample_positions(param.shape, rng)
        new_mask = SparseMask(param.shape, *positions_to_sparse(positions))
        masks = dict(state.sparse_items())
        old_mask = masks[name]
        masks[name] = new_mask
        # q(x|x') / q(x'|x) = prior(old block) / prior(new block)
        log_hastings = target_model.log_prob_sparse(old_mask) - target_model.log_prob_sparse(new_mask)
        return FaultConfiguration(masks), log_hastings


class MixtureProposal:
    """Choose among component proposals with fixed probabilities.

    Standard MH practice: local moves for fine exploration plus occasional
    global resamples to jump between fault-space modes.
    """

    def __init__(self, components: list[tuple[object, float]]) -> None:
        if not components:
            raise ValueError("MixtureProposal requires at least one component")
        weights = np.asarray([w for _, w in components], dtype=np.float64)
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        self._proposals = [p for p, _ in components]
        self._weights = weights / weights.sum()

    def propose(
        self, state: FaultConfiguration, rng: np.random.Generator
    ) -> tuple[FaultConfiguration, float]:
        # NOTE: strictly, a mixture of proposals with differing densities
        # needs the mixture density in the Hastings ratio. Each component
        # here is individually valid (symmetric, or prior-Gibbs whose ratio
        # is exact), and component choice is state-independent, so using the
        # chosen component's correction preserves detailed balance.
        index = rng.choice(len(self._proposals), p=self._weights)
        return self._proposals[index].propose(state, rng)

"""Heterogeneous per-lane AVF model.

The paper says "per-bit architectural vulnerability factor". On real
hardware the AVF genuinely differs per bit line: cells under a parity
tree, bits adjacent to well taps, or lanes mapped to different DRAM
devices see different upset rates. :class:`HeterogeneousBitFlipModel`
assigns each of the 32 lanes its own Bernoulli probability — the uniform
:class:`~repro.faults.bernoulli.BernoulliBitFlipModel` is the special case
``lane_probs = [p] * 32``, and :class:`repro.bayes.PoissonBinomial` gives
the exact flip-count law the stratified estimator would need for it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT, positions_to_mask
from repro.faults.model import FaultModel

__all__ = ["HeterogeneousBitFlipModel"]


class HeterogeneousBitFlipModel(FaultModel):
    """Independent Bernoulli flips with a per-lane probability vector.

    Parameters
    ----------
    lane_probs:
        Length-32 array; ``lane_probs[b]`` is the flip probability of bit
        lane ``b`` (0 = mantissa LSB, 31 = sign) for every element.
    """

    def __init__(self, lane_probs: np.ndarray) -> None:
        lane_probs = np.asarray(lane_probs, dtype=np.float64)
        if lane_probs.shape != (BITS_PER_FLOAT,):
            raise ValueError(f"lane_probs must have shape (32,), got {lane_probs.shape}")
        if np.any((lane_probs < 0) | (lane_probs > 1)):
            raise ValueError("lane probabilities must lie in [0, 1]")
        self.lane_probs = lane_probs

    @classmethod
    def uniform(cls, p: float) -> "HeterogeneousBitFlipModel":
        """The homogeneous special case (equivalent to BernoulliBitFlipModel)."""
        return cls(np.full(BITS_PER_FLOAT, p))

    @classmethod
    def ecc_on_exponent(cls, p: float, residual_factor: float = 0.01) -> "HeterogeneousBitFlipModel":
        """Raw rate ``p`` with the exponent byte behind ECC.

        ECC does not make upsets impossible (multi-bit words escape), so the
        exponent lanes keep ``residual_factor · p``.
        """
        probs = np.full(BITS_PER_FLOAT, p)
        probs[23:31] *= residual_factor
        return cls(probs)

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Sparse exact sampling, lane by lane.

        Per lane the flips among ``n`` elements are Binomial(n, p_lane) +
        uniform element choice — the same identity the homogeneous sampler
        uses, applied 32 times.
        """
        n = int(np.prod(shape)) if shape else 1
        positions: list[np.ndarray] = []
        for lane, p in enumerate(self.lane_probs):
            if p <= 0.0 or n == 0:
                continue
            count = int(rng.binomial(n, p))
            if count == 0:
                continue
            elements = rng.choice(n, size=count, replace=False)
            positions.append(elements * BITS_PER_FLOAT + lane)
        if not positions:
            return np.zeros(shape, dtype=np.uint32)
        return positions_to_mask(np.concatenate(positions), shape)

    def log_prob_mask(self, mask: np.ndarray) -> float:
        mask = np.asarray(mask, dtype=np.uint32).reshape(-1)
        total = 0.0
        for lane, p in enumerate(self.lane_probs):
            set_in_lane = int(((mask >> np.uint32(lane)) & np.uint32(1)).sum())
            clear_in_lane = mask.size - set_in_lane
            if p == 0.0:
                if set_in_lane:
                    return -math.inf
                continue
            if p == 1.0:
                if clear_in_lane:
                    return -math.inf
                continue
            total += set_in_lane * math.log(p) + clear_in_lane * math.log1p(-p)
        return total

    def expected_flips(self, n_elements: int) -> float:
        return float(n_elements * self.lane_probs.sum())

    def __repr__(self) -> str:
        return (
            f"HeterogeneousBitFlipModel(mean_p={self.lane_probs.mean():.3g}, "
            f"range=[{self.lane_probs.min():.3g}, {self.lane_probs.max():.3g}])"
        )

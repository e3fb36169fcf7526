"""The paper's fault model: per-bit Bernoulli(p) flips.

"We model such faults by using the per-bit architectural vulnerability
factor (AVF), i.e., each bit error is treated as a Bernoulli random
variable with probability p. We do not make any assumptions about the
number of bits in error; this is determined by p."

``bits`` optionally restricts the vulnerable bit lanes (the A1 ablation
flips only exponent bits, say); ``None`` means all 32, as in the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bits.float32 import (
    BITS_PER_FLOAT,
    count_set_bits,
    sample_bernoulli_mask,
    sample_flip_positions,
)
from repro.faults.model import FaultModel
from repro.faults.sparse import SparseMask

__all__ = ["BernoulliBitFlipModel"]


class BernoulliBitFlipModel(FaultModel):
    """Every bit of every float flips independently with probability ``p``."""

    def __init__(self, p: float, bits: tuple[int, ...] | None = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {p}")
        self.p = float(p)
        if bits is not None:
            lanes = np.asarray(sorted(set(bits)), dtype=np.int64)
            if lanes.size == 0:
                raise ValueError("bits, when given, must be non-empty")
            if lanes.min() < 0 or lanes.max() >= BITS_PER_FLOAT:
                raise ValueError("bit lanes must be in [0, 32)")
            self.bits: np.ndarray | None = lanes
            self._allowed = np.uint32(
                np.bitwise_or.reduce(np.uint32(1) << lanes.astype(np.uint32))
            )
        else:
            self.bits = None
            self._allowed = np.uint32(0xFFFFFFFF)

    @property
    def lanes_per_element(self) -> int:
        return BITS_PER_FLOAT if self.bits is None else int(self.bits.size)

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return sample_bernoulli_mask(shape, self.p, rng, bits=self.bits)

    def sample_positions(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Sparse-native draw: identical RNG consumption to :meth:`sample_mask`.

        Both route through :func:`sample_flip_positions`, so the drawn
        positions — and therefore every downstream statistic — are
        bit-identical whichever representation a campaign uses.
        """
        return sample_flip_positions(math.prod(shape), self.p, rng, bits=self.bits)

    def log_prob_mask(self, mask: np.ndarray) -> float:
        """log P(mask) under i.i.d. Bernoulli(p) bits.

        Only the vulnerable lanes contribute; a mask setting a bit outside
        them has probability zero (−inf).
        """
        mask = np.asarray(mask, dtype=np.uint32)
        if self.bits is not None and np.any(mask & ~self._allowed):
            return -math.inf
        return self._log_prob(count_set_bits(mask), mask.size)

    def log_prob_sparse(self, sparse: SparseMask) -> float:
        """O(K) density: the Bernoulli likelihood needs only the flip count."""
        if self.bits is not None and np.any(sparse.lane_masks & ~self._allowed):
            return -math.inf
        return self._log_prob(sparse.count_set_bits(), sparse.size)

    def _log_prob(self, k: int, n_elements: int) -> float:
        n_lanes = n_elements * self.lanes_per_element
        if self.p == 0.0:
            return 0.0 if k == 0 else -math.inf
        if self.p == 1.0:
            return 0.0 if k == n_lanes else -math.inf
        return k * math.log(self.p) + (n_lanes - k) * math.log1p(-self.p)

    def expected_flips(self, n_elements: int) -> float:
        return n_elements * self.lanes_per_element * self.p

    def __repr__(self) -> str:
        lanes = "all" if self.bits is None else f"{list(self.bits)}"
        return f"BernoulliBitFlipModel(p={self.p}, bits={lanes})"

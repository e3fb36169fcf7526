"""The FaultModel abstraction.

A fault model is a probability distribution over corruptions of a float32
array. Mask-based models (everything except stuck-at) express a corruption
as a uint32 XOR mask, which composes with the paper's ``W' = e ⊕ W``
transform; stuck-at faults depend on the stored value and override
:meth:`corrupt` directly.
"""

from __future__ import annotations

import numpy as np

from repro.bits.float32 import apply_bit_mask, mask_to_positions

__all__ = ["FaultModel"]


class FaultModel:
    """Distribution over bit-level corruptions of a float32 array."""

    def for_target(self, target: str) -> "FaultModel":
        """A view of this model specialised to one named target tensor.

        The base models are target-agnostic and return ``self``;
        target-aware wrappers (e.g. :class:`repro.protect.ProtectedFaultModel`,
        whose protected lanes differ per layer) override this. Campaign
        plumbing calls it before drawing or evaluating a target.
        """
        return self

    def sample_mask(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw a uint32 XOR mask of ``shape``.

        Mask-based models must implement this; value-dependent models
        (stuck-at) raise and override :meth:`corrupt` instead.
        """
        raise NotImplementedError

    def sample_positions(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draw a mask of ``shape`` as flat bit positions (``q`` is bit ``q % 32`` of element ``q // 32``).

        The one draw primitive block sampling
        (:meth:`~repro.faults.configuration.FaultConfiguration.sample_block`)
        calls. It consumes exactly the same RNG draws as :meth:`sample_mask`
        and denotes the same mask; duplicate positions denote one flip. The
        base implementation reads the positions off the dense draw;
        sparse-native models (Bernoulli) override it to stay O(K) in the
        number of flipped bits.
        """
        return mask_to_positions(self.sample_mask(shape, rng))

    def log_prob_sparse(self, sparse) -> float:
        """Log-probability of a :class:`~repro.faults.sparse.SparseMask` draw.

        Default densifies; models whose density depends only on the flip
        count and lane occupancy (Bernoulli) override it to stay O(K).
        """
        return self.log_prob_mask(sparse.to_dense())

    def corrupt(self, values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a corrupted copy of ``values`` (float32)."""
        return apply_bit_mask(values, self.sample_mask(np.shape(values), rng))

    def log_prob_mask(self, mask: np.ndarray) -> float:
        """Log-probability of drawing ``mask`` (for models that define it).

        Used by the MCMC kernels, whose stationary distribution is the fault
        model's prior over masks.
        """
        raise NotImplementedError(f"{type(self).__name__} does not define a mask log-probability")

    def expected_flips(self, n_elements: int) -> float:
        """Expected number of flipped bits over ``n_elements`` floats."""
        raise NotImplementedError

"""Sparse XOR masks: the small-p representation behind the fast path.

At the paper's flip probabilities (1e-5 … 1e-3) a Bernoulli draw touches a
handful of the millions of bits in a parameter tensor. Carrying the draw as
a dense uint32 array of the parameter's shape makes every campaign step pay
O(N) — sampling already avoids that (:func:`repro.bits.sample_flip_positions`
draws the K flipped positions directly), but densifying immediately
afterwards throws the advantage away.

:class:`SparseMask` keeps the draw in (element indices, per-element lane
masks) form. Folding the K positions into it is one sort plus one
run-wise OR, O(K log K). From then on Hamming weights, emptiness tests and
the copy-on-write apply/restore in
:func:`repro.faults.injection.apply_configuration` run in O(K), and XOR
for MCMC proposals in O(K log K). A dense view is materialised only where
a consumer genuinely needs one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bits.float32 import (
    BITS_PER_FLOAT,
    count_set_bits,
    mask_to_sparse,
    sparse_to_mask,
)

__all__ = ["SparseMask"]


class SparseMask:
    """A uint32 XOR mask stored as (flat element indices, lane masks).

    ``elements`` are sorted, unique flat indices into the target tensor;
    ``lane_masks[i]`` holds the (nonzero) lanes flipped in
    ``elements[i]``. Equivalent to — and convertible to/from — the dense
    mask of ``shape``.
    """

    __slots__ = ("shape", "elements", "lane_masks")

    def __init__(self, shape: tuple[int, ...], elements: np.ndarray, lane_masks: np.ndarray) -> None:
        self.shape = tuple(shape)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.lane_masks = np.asarray(lane_masks, dtype=np.uint32)
        if self.elements.shape != self.lane_masks.shape or self.elements.ndim != 1:
            raise ValueError("elements and lane_masks must be aligned 1-D arrays")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "SparseMask":
        return cls(shape, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32))

    @classmethod
    def from_dense(cls, mask: np.ndarray) -> "SparseMask":
        mask = np.asarray(mask)
        if mask.dtype != np.uint32:
            raise TypeError(f"mask must be uint32, got {mask.dtype}")
        elements, lane_masks = mask_to_sparse(mask)
        return cls(mask.shape, elements, lane_masks)

    @classmethod
    def _trusted(cls, shape: tuple[int, ...], elements: np.ndarray, lane_masks: np.ndarray) -> "SparseMask":
        """Wrap arrays already in canonical form (int64/uint32, aligned, range-checked).

        No conversion or validation: block sampling slices one checked fold
        into many rows, and pays the checks once for all of them.
        """
        sparse = object.__new__(cls)
        sparse.shape = shape
        sparse.elements = elements
        sparse.lane_masks = lane_masks
        return sparse

    # ------------------------------------------------------------------ #
    # views and statistics
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of elements in the (dense) target tensor."""
        return math.prod(self.shape)

    @property
    def touched(self) -> int:
        """Number of elements with at least one flipped bit."""
        return int(self.elements.size)

    def is_empty(self) -> bool:
        return self.elements.size == 0

    def count_set_bits(self) -> int:
        """Hamming weight — O(K), never densifies."""
        return count_set_bits(self.lane_masks)

    def to_dense(self) -> np.ndarray:
        return sparse_to_mask(self.elements, self.lane_masks, self.shape)

    def to_positions(self) -> np.ndarray:
        """Sorted flat bit positions, O(32 K)."""
        if self.is_empty():
            return np.empty(0, dtype=np.int64)
        lanes = np.arange(BITS_PER_FLOAT, dtype=np.uint32)
        set_bits = (self.lane_masks[:, None] >> lanes[None, :]) & np.uint32(1)
        element_idx, lane_idx = np.nonzero(set_bits)
        return self.elements[element_idx] * BITS_PER_FLOAT + lane_idx.astype(np.int64)

    def copy(self) -> "SparseMask":
        return SparseMask(self.shape, self.elements.copy(), self.lane_masks.copy())

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def xor(self, other: "SparseMask") -> "SparseMask":
        """Sparse XOR: union the touched elements, cancel zeroed lanes."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self.is_empty():
            return other.copy()
        if other.is_empty():
            return self.copy()
        stacked = np.concatenate([self.elements, other.elements])
        lanes = np.concatenate([self.lane_masks, other.lane_masks])
        elements, inverse = np.unique(stacked, return_inverse=True)
        merged = np.zeros(elements.size, dtype=np.uint32)
        np.bitwise_xor.at(merged, inverse, lanes)
        keep = merged != 0
        return SparseMask(self.shape, elements[keep], merged[keep])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMask):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.elements, other.elements)
            and np.array_equal(self.lane_masks, other.lane_masks)
        )

    def __hash__(self) -> int:  # mutable container; identity hash, as masks elsewhere
        return id(self)

    def __repr__(self) -> str:
        return f"SparseMask(shape={self.shape}, touched={self.touched}, flips={self.count_set_bits()})"

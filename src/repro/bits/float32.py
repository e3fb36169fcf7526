"""float32 ↔ bit-pattern conversion and Bernoulli mask sampling.

Sampling note
-------------
The paper's model draws each of the 32 bits of every float i.i.d. from
Bernoulli(p). For an array of ``n`` floats there are ``N = 32 n`` bits; a
draw is therefore equivalent to

1. drawing the flip count ``K ~ Binomial(N, p)``, then
2. choosing ``K`` distinct bit positions uniformly at random.

:func:`sample_flip_positions` uses this sparse construction, which is exact
(not an approximation) and turns an O(N) dense Bernoulli draw into an O(K)
draw — the difference between milliseconds and seconds per MCMC step at the
small p values (1e-5) the paper sweeps. :func:`positions_to_sparse` folds
the K positions into (elements, lane masks) form with one sort and one
run-wise OR, O(K log K); only densifying (:func:`positions_to_mask`,
:func:`sample_bernoulli_mask`) pays O(N).
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "BITS_PER_FLOAT",
    "float_to_bits",
    "bits_to_float",
    "apply_bit_mask",
    "flip_bit",
    "sample_flip_positions",
    "positions_to_mask",
    "mask_to_positions",
    "mask_to_sparse",
    "sparse_to_mask",
    "positions_to_sparse",
    "fold_positions",
    "sample_bernoulli_mask",
    "count_set_bits",
]

BITS_PER_FLOAT = 32


def float_to_bits(values: np.ndarray) -> np.ndarray:
    """Reinterpret a float32 array as its uint32 bit patterns (no copy)."""
    values = np.asarray(values)
    if values.dtype != np.float32:
        raise TypeError(f"expected float32, got {values.dtype}")
    return values.view(np.uint32)


def bits_to_float(bits: np.ndarray) -> np.ndarray:
    """Reinterpret a uint32 array as float32 values (no copy)."""
    bits = np.asarray(bits)
    if bits.dtype != np.uint32:
        raise TypeError(f"expected uint32, got {bits.dtype}")
    return bits.view(np.float32)


def apply_bit_mask(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Return ``values`` with ``mask`` XOR-ed into their bit patterns.

    This is the paper's fault transform ``W' = e ⊕ W``. The input is not
    modified; a new float32 array is returned.
    """
    values = np.asarray(values, dtype=np.float32)
    mask = np.asarray(mask, dtype=np.uint32)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match values shape {values.shape}")
    return bits_to_float(float_to_bits(values) ^ mask)


def flip_bit(value: float, bit: int) -> float:
    """Flip one bit (0 = LSB of mantissa, 31 = sign) of a scalar float32."""
    if not 0 <= bit < BITS_PER_FLOAT:
        raise ValueError(f"bit must be in [0, 32), got {bit}")
    arr = np.asarray([value], dtype=np.float32)
    flipped = apply_bit_mask(arr, np.asarray([np.uint32(1) << np.uint32(bit)], dtype=np.uint32))
    return float(flipped[0])


def sample_flip_positions(
    n_elements: int,
    p: float,
    rng: int | np.random.Generator | None,
    bits: np.ndarray | None = None,
) -> np.ndarray:
    """Sample the global bit positions flipped by one Bernoulli(p) draw.

    Positions index the flattened bit space: position ``q`` refers to bit
    ``q % 32`` of element ``q // 32``. ``bits`` optionally restricts which
    of the 32 bit lanes are vulnerable (used by the bit-position ablation);
    lanes outside it have flip probability 0.
    """
    if n_elements < 0:
        raise ValueError(f"n_elements must be non-negative, got {n_elements}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    gen = as_generator(rng)
    if bits is None:
        total_bits = n_elements * BITS_PER_FLOAT
        count = gen.binomial(total_bits, p) if total_bits else 0
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return gen.choice(total_bits, size=count, replace=False).astype(np.int64, copy=False)
    lanes = np.asarray(bits, dtype=np.int64)
    if lanes.size == 0:
        return np.empty(0, dtype=np.int64)
    if lanes.min() < 0 or lanes.max() >= BITS_PER_FLOAT:
        raise ValueError("bit lanes must be in [0, 32)")
    total = n_elements * lanes.size
    count = gen.binomial(total, p) if total else 0
    if count == 0:
        return np.empty(0, dtype=np.int64)
    picks = gen.choice(total, size=count, replace=False)
    elements = picks // lanes.size
    lane_idx = picks % lanes.size
    return elements * BITS_PER_FLOAT + lanes[lane_idx]


def positions_to_mask(positions: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Build a uint32 XOR mask of ``shape`` from flattened bit positions."""
    n = int(np.prod(shape)) if shape else 1
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= n * BITS_PER_FLOAT):
        raise ValueError("bit position out of range for shape")
    mask = np.zeros(n, dtype=np.uint32)
    if positions.size:
        elements = positions // BITS_PER_FLOAT
        bit_lane = (positions % BITS_PER_FLOAT).astype(np.uint32)
        np.bitwise_or.at(mask, elements, np.uint32(1) << bit_lane)
    return mask.reshape(shape)


def mask_to_positions(mask: np.ndarray) -> np.ndarray:
    """Inverse of :func:`positions_to_mask`: sorted flat bit positions set in ``mask``."""
    elements, lane_masks = mask_to_sparse(mask)
    if elements.size == 0:
        return np.empty(0, dtype=np.int64)
    # Expand each touched element's lane mask into its set lanes, vectorised:
    # the (n_touched, 32) bit table costs O(32 K), not O(32 N).
    lanes = np.arange(BITS_PER_FLOAT, dtype=np.uint32)
    set_bits = (lane_masks[:, None] >> lanes[None, :]) & np.uint32(1)
    element_idx, lane_idx = np.nonzero(set_bits)  # row-major → sorted positions
    return elements[element_idx] * BITS_PER_FLOAT + lane_idx.astype(np.int64)


def mask_to_sparse(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse form of a uint32 mask: (flat element indices, their lane masks).

    The inverse of :func:`sparse_to_mask`. Only elements with at least one
    set bit appear; indices are sorted ascending.
    """
    flat = np.asarray(mask, dtype=np.uint32).reshape(-1)
    elements = np.flatnonzero(flat).astype(np.int64)
    return elements, flat[elements]


def sparse_to_mask(
    elements: np.ndarray, lane_masks: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Densify a sparse (elements, lane masks) pair into a mask of ``shape``."""
    n = int(np.prod(shape)) if shape else 1
    elements = np.asarray(elements, dtype=np.int64)
    lane_masks = np.asarray(lane_masks, dtype=np.uint32)
    if elements.shape != lane_masks.shape:
        raise ValueError("elements and lane_masks must align")
    if elements.size and (elements.min() < 0 or elements.max() >= n):
        raise ValueError("element index out of range for shape")
    mask = np.zeros(n, dtype=np.uint32)
    if elements.size:
        np.bitwise_or.at(mask, elements, lane_masks)
    return mask.reshape(shape)


def positions_to_sparse(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold flat bit positions into sparse (elements, lane masks) form.

    One sort of the K flipped positions, then one ``bitwise_or.reduceat``
    over the runs of equal elements: O(K log K) in the number of flipped
    bits, never touching the dense element space, which is what makes
    small-p sampling cheap end to end. Duplicate positions fold to one
    lane bit; the input order does not matter, and the input is never
    modified.
    """
    return fold_positions(np.array(positions, dtype=np.int64).reshape(-1))


def fold_positions(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`positions_to_sparse` of a 1-D int64 array, sorted in place.

    For a caller that owns a freshly built array (the block sampler's
    offset positions) and so need not pay for a defensive copy.
    """
    if positions.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    positions.sort()
    element_of = positions // BITS_PER_FLOAT
    # the lane is the low five bits (equal to ``% 32``, and several times cheaper)
    lane_bit = np.uint32(1) << (positions & (BITS_PER_FLOAT - 1)).astype(np.uint32)
    run_start = np.empty(element_of.size, dtype=bool)
    run_start[0] = True
    np.not_equal(element_of[1:], element_of[:-1], out=run_start[1:])
    starts = run_start.nonzero()[0]
    return element_of[starts], np.bitwise_or.reduceat(lane_bit, starts)


def sample_bernoulli_mask(
    shape: tuple[int, ...],
    p: float,
    rng: int | np.random.Generator | None,
    bits: np.ndarray | None = None,
) -> np.ndarray:
    """Draw a uint32 flip mask with every bit i.i.d. Bernoulli(p).

    Exact sparse construction; see module docstring. ``bits`` restricts the
    vulnerable bit lanes (default: all 32).
    """
    n = int(np.prod(shape)) if shape else 1
    positions = sample_flip_positions(n, p, rng, bits=bits)
    return positions_to_mask(positions, shape)


def count_set_bits(mask: np.ndarray) -> int:
    """Total number of set bits (Hamming weight) across a uint32 mask array."""
    return int(np.bitwise_count(np.asarray(mask, dtype=np.uint32)).sum())

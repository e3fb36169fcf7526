"""Property-based tests for the bit machinery (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bits import (
    apply_bit_mask,
    count_set_bits,
    mask_to_positions,
    positions_to_mask,
    sample_bernoulli_mask,
)

_float32_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=8),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
)

_uint32 = st.integers(min_value=0, max_value=2**32 - 1)


class TestXorProperties:
    @given(_float32_arrays, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, values, seed):
        """Applying the same mask twice restores the original bits."""
        rng = np.random.default_rng(seed)
        mask = sample_bernoulli_mask(values.shape, 0.2, rng)
        roundtrip = apply_bit_mask(apply_bit_mask(values, mask), mask)
        assert np.array_equal(float_bits(roundtrip), float_bits(values))

    @given(_float32_arrays)
    @settings(max_examples=40, deadline=None)
    def test_zero_mask_identity(self, values):
        out = apply_bit_mask(values, np.zeros(values.shape, dtype=np.uint32))
        assert np.array_equal(float_bits(out), float_bits(values))

    @given(_float32_arrays, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_mask_composition_is_xor(self, values, seed):
        rng = np.random.default_rng(seed)
        m1 = sample_bernoulli_mask(values.shape, 0.1, rng)
        m2 = sample_bernoulli_mask(values.shape, 0.1, rng)
        sequential = apply_bit_mask(apply_bit_mask(values, m1), m2)
        combined = apply_bit_mask(values, m1 ^ m2)
        assert np.array_equal(float_bits(sequential), float_bits(combined))


def float_bits(x: np.ndarray) -> np.ndarray:
    """Compare via bit patterns (NaN-safe equality)."""
    return x.view(np.uint32)


class TestPopcountProperties:
    @given(st.lists(_uint32, min_size=0, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_matches_int_bit_count(self, words):
        arr = np.asarray(words, dtype=np.uint32)
        assert count_set_bits(arr) == sum(w.bit_count() for w in words)

    @given(st.lists(_uint32, min_size=1, max_size=20), st.lists(_uint32, min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_additive_over_concatenation(self, a, b):
        arr_a = np.asarray(a, dtype=np.uint32)
        arr_b = np.asarray(b, dtype=np.uint32)
        both = np.concatenate([arr_a, arr_b])
        assert count_set_bits(both) == count_set_bits(arr_a) + count_set_bits(arr_b)


class TestPositionRoundtrip:
    @given(
        st.integers(min_value=1, max_value=20),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_positions_to_mask_roundtrip(self, n_elements, data):
        total = n_elements * 32
        k = data.draw(st.integers(min_value=0, max_value=min(total, 30)))
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=total - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        mask = positions_to_mask(np.asarray(positions, dtype=np.int64), (n_elements,))
        recovered = sorted(mask_to_positions(mask).tolist())
        assert recovered == sorted(positions)
        assert count_set_bits(mask) == len(positions)

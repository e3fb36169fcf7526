"""Bit-level float32 machinery."""

import numpy as np
import pytest

from repro.bits import (
    apply_bit_mask,
    bits_to_float,
    count_set_bits,
    flip_bit,
    float_to_bits,
    mask_to_positions,
    positions_to_mask,
    sample_bernoulli_mask,
    sample_flip_positions,
)


class TestReinterpretation:
    def test_roundtrip(self):
        x = np.array([0.0, 1.0, -1.5, 3.14e-30, 1e30], dtype=np.float32)
        assert np.array_equal(bits_to_float(float_to_bits(x)), x)

    def test_known_patterns(self):
        assert float_to_bits(np.array([1.0], dtype=np.float32))[0] == 0x3F800000
        assert float_to_bits(np.array([-2.0], dtype=np.float32))[0] == 0xC0000000
        assert float_to_bits(np.array([0.0], dtype=np.float32))[0] == 0

    def test_dtype_enforcement(self):
        with pytest.raises(TypeError):
            float_to_bits(np.zeros(2, dtype=np.float64))
        with pytest.raises(TypeError):
            bits_to_float(np.zeros(2, dtype=np.int32))


class TestApplyMask:
    def test_zero_mask_is_identity(self):
        x = np.array([1.0, 2.0], dtype=np.float32)
        assert np.array_equal(apply_bit_mask(x, np.zeros(2, dtype=np.uint32)), x)

    def test_does_not_modify_input(self):
        x = np.array([1.0], dtype=np.float32)
        apply_bit_mask(x, np.array([0xFFFFFFFF], dtype=np.uint32))
        assert x[0] == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_bit_mask(np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.uint32))

    def test_known_flips(self):
        assert flip_bit(1.0, 31) == -1.0          # sign
        assert flip_bit(1.0, 22) == 1.5           # top mantissa bit
        assert flip_bit(1.0, 23) == 0.5           # exponent LSB: 1 -> 0.5
        assert np.isinf(flip_bit(1.0, 30))        # exponent MSB: catastrophic

    def test_flip_bit_validation(self):
        with pytest.raises(ValueError):
            flip_bit(1.0, 32)


class TestSampling:
    def test_flip_count_matches_binomial_mean(self):
        rng = np.random.default_rng(0)
        n, p, trials = 500, 0.01, 30
        counts = [
            count_set_bits(sample_bernoulli_mask((n,), p, rng)) for _ in range(trials)
        ]
        expected = n * 32 * p  # 160
        assert abs(np.mean(counts) - expected) < 4 * np.sqrt(expected / trials)

    def test_p_zero_and_one(self):
        rng = np.random.default_rng(1)
        assert count_set_bits(sample_bernoulli_mask((10,), 0.0, rng)) == 0
        assert count_set_bits(sample_bernoulli_mask((10,), 1.0, rng)) == 320

    def test_restricted_bit_lanes(self):
        rng = np.random.default_rng(2)
        mask = sample_bernoulli_mask((100,), 0.5, rng, bits=np.array([31]))
        # Only the sign bit may be set.
        assert not np.any(mask & np.uint32(0x7FFFFFFF))
        assert np.any(mask >> np.uint32(31))

    def test_positions_unique(self):
        rng = np.random.default_rng(3)
        positions = sample_flip_positions(100, 0.05, rng)
        assert len(positions) == len(set(positions.tolist()))

    def test_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_flip_positions(-1, 0.1, rng)
        with pytest.raises(ValueError):
            sample_flip_positions(10, 1.5, rng)
        with pytest.raises(ValueError):
            sample_flip_positions(10, 0.1, rng, bits=np.array([40]))


class TestPositionsMask:
    def test_roundtrip(self):
        positions = np.array([0, 31, 32, 95])
        mask = positions_to_mask(positions, (3,))
        assert sorted(mask_to_positions(mask).tolist()) == sorted(positions.tolist())

    def test_multiple_bits_same_element(self):
        mask = positions_to_mask(np.array([0, 1, 2]), (1,))
        assert mask[0] == 0b111

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            positions_to_mask(np.array([32]), (1,))

    def test_nd_shapes(self):
        mask = positions_to_mask(np.array([33]), (2, 2))
        assert mask.shape == (2, 2)
        assert mask[0, 1] == 2  # element 1, bit 1


class TestPopcount:
    def test_known_values(self):
        assert count_set_bits(np.array([0], dtype=np.uint32)) == 0
        assert count_set_bits(np.array([0xFFFFFFFF], dtype=np.uint32)) == 32
        assert count_set_bits(np.array([0b1011, 0b1], dtype=np.uint32)) == 4

    def test_matches_python_popcount(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**32, size=200, dtype=np.uint32)
        expected = sum(int(v).bit_count() for v in values)
        assert count_set_bits(values) == expected

    def test_scalar_and_nd(self):
        assert count_set_bits(np.uint32(0xF0F0F0F0)) == 16
        assert count_set_bits(np.full((3, 4), 0xFFFFFFFF, dtype=np.uint32)) == 3 * 4 * 32

    def test_returns_python_int_and_leaves_input(self):
        mask = np.array([0xFFFFFFFF, 7], dtype=np.uint32)
        count = count_set_bits(mask)
        assert type(count) is int and count == 35
        assert mask.tolist() == [0xFFFFFFFF, 7]

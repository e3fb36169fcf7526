"""IEEE-754 field classification."""

import pytest

from repro.bits import EXPONENT_BITS, MANTISSA_BITS, SIGN_BIT, bit_field, describe_flip, field_mask


class TestClassification:
    def test_partition_is_complete(self):
        lanes = {SIGN_BIT} | set(EXPONENT_BITS) | set(MANTISSA_BITS)
        assert lanes == set(range(32))

    def test_field_names(self):
        assert bit_field(31) == "sign"
        assert bit_field(30) == "exponent"
        assert bit_field(23) == "exponent"
        assert bit_field(22) == "mantissa"
        assert bit_field(0) == "mantissa"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bit_field(32)

    def test_field_masks_partition_word(self):
        total = int(field_mask("sign")) | int(field_mask("exponent")) | int(field_mask("mantissa"))
        assert total == 0xFFFFFFFF
        assert int(field_mask("sign")) & int(field_mask("exponent")) == 0

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            field_mask("parity")


class TestDescribeFlip:
    def test_sign_flip(self):
        info = describe_flip(2.5, 31)
        assert info["flipped"] == -2.5
        assert info["field"] == "sign"
        assert info["rel_change"] == pytest.approx(2.0)
        assert not info["non_finite"]

    def test_catastrophic_exponent_flip(self):
        info = describe_flip(1.0, 30)
        assert info["non_finite"]
        assert info["field"] == "exponent"

    def test_low_mantissa_flip_is_tiny(self):
        info = describe_flip(1.0, 0)
        assert info["rel_change"] < 1e-6

    def test_mantissa_effect_grows_with_bit_index(self):
        changes = [describe_flip(1.0, b)["rel_change"] for b in range(0, 23)]
        assert all(a < b for a, b in zip(changes, changes[1:]))

"""Differential tests for the sparse fold.

:func:`positions_to_sparse` sorts the flat bit positions and ORs the lane
bits of each run of equal elements with ``bitwise_or.reduceat``. It must
give exactly what the straightforward fold gives: ``np.unique`` over the
elements plus an unbuffered ``bitwise_or.at`` into the unique slots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits.float32 import BITS_PER_FLOAT, fold_positions, positions_to_sparse


def reference_fold(positions):
    """The unique/``bitwise_or.at`` fold (any order, duplicates allowed)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    element_of = positions // BITS_PER_FLOAT
    lane_bit = np.uint32(1) << (positions % BITS_PER_FLOAT).astype(np.uint32)
    elements, inverse = np.unique(element_of, return_inverse=True)
    lane_masks = np.zeros(elements.size, dtype=np.uint32)
    np.bitwise_or.at(lane_masks, inverse, lane_bit)
    return elements, lane_masks


def assert_same_fold(positions):
    elements, lane_masks = positions_to_sparse(positions)
    expected_elements, expected_lanes = reference_fold(positions)
    assert elements.dtype == np.int64 and lane_masks.dtype == np.uint32
    assert np.array_equal(elements, expected_elements)
    assert np.array_equal(lane_masks, expected_lanes)


class TestPositionsToSparse:
    @given(st.lists(st.integers(min_value=-2 * BITS_PER_FLOAT, max_value=40 * BITS_PER_FLOAT - 1), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_fold(self, positions):
        """Unsorted input with duplicates (or negatives) folds like the reference."""
        assert_same_fold(np.asarray(positions, dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_lane_31_and_dense_runs(self, lanes):
        """Runs packed into few elements, lane 31 (the sign bit) included."""
        positions = np.asarray(
            [(lane % 2) * BITS_PER_FLOAT + (31 - lane) for lane in lanes], dtype=np.int64
        )
        assert_same_fold(positions)

    def test_empty(self):
        assert_same_fold(np.empty(0, dtype=np.int64))
        assert_same_fold([])

    def test_sign_lane_of_every_element(self):
        positions = np.arange(8, dtype=np.int64)[::-1] * BITS_PER_FLOAT + 31
        elements, lane_masks = positions_to_sparse(positions)
        assert elements.tolist() == list(range(8))
        assert lane_masks.tolist() == [0x80000000] * 8
        assert_same_fold(positions)

    def test_duplicates_fold_to_one_lane_bit(self):
        elements, lane_masks = positions_to_sparse(np.array([33, 5, 33, 5, 63, 33]))
        assert elements.tolist() == [0, 1]
        assert lane_masks.tolist() == [1 << 5, (1 << 1) | (1 << 31)]

    def test_input_not_modified(self):
        values = [70, 3, 40, 3, 5000, 0]
        for positions in (
            np.array(values, dtype=np.int64),
            np.array(values, dtype=np.int64)[::-1],
            np.array(values, dtype=np.int32),
            np.array(values, dtype=np.int64).reshape(2, 3),
        ):
            before = positions.copy()
            positions_to_sparse(positions)
            assert np.array_equal(positions, before)
        listed = list(values)
        positions_to_sparse(listed)
        assert listed == values


class TestFoldPositions:
    @given(st.lists(st.integers(min_value=0, max_value=40 * BITS_PER_FLOAT - 1), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_same_fold_and_sorts_its_own_array(self, values):
        positions = np.asarray(values, dtype=np.int64)
        elements, lane_masks = fold_positions(positions)
        expected_elements, expected_lanes = reference_fold(values)
        assert np.array_equal(elements, expected_elements)
        assert np.array_equal(lane_masks, expected_lanes)
        assert positions.tolist() == sorted(values)


"""Property-based tests for fault configurations and models (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.faults import BernoulliBitFlipModel, FaultConfiguration
from repro.faults.sparse import SparseMask

_mask_arrays = hnp.arrays(
    dtype=np.uint32,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.integers(min_value=0, max_value=2**32 - 1),
)


def _config(masks_dict):
    return FaultConfiguration({k: np.asarray(v, dtype=np.uint32) for k, v in masks_dict.items()})


class TestConfigurationAlgebra:
    """XOR algebra of the sparse masks that MCMC proposals build configurations from."""

    @given(_mask_arrays, st.data())
    @settings(max_examples=40, deadline=None)
    def test_xor_commutative(self, mask_a, data):
        mask_b = data.draw(
            hnp.arrays(dtype=np.uint32, shape=mask_a.shape,
                       elements=st.integers(min_value=0, max_value=2**32 - 1))
        )
        a, b = SparseMask.from_dense(mask_a), SparseMask.from_dense(mask_b)
        assert a.xor(b) == b.xor(a)

    @given(_mask_arrays)
    @settings(max_examples=40, deadline=None)
    def test_xor_self_inverse(self, mask):
        sparse = SparseMask.from_dense(mask)
        assert sparse.xor(sparse).is_empty()

    @given(_mask_arrays)
    @settings(max_examples=40, deadline=None)
    def test_identity_element(self, mask):
        sparse = SparseMask.from_dense(mask)
        zero = SparseMask.from_dense(np.zeros_like(mask))
        assert sparse.xor(zero) == sparse

    @given(_mask_arrays, st.data())
    @settings(max_examples=30, deadline=None)
    def test_flip_count_triangle_inequality(self, mask_a, data):
        mask_b = data.draw(
            hnp.arrays(dtype=np.uint32, shape=mask_a.shape,
                       elements=st.integers(min_value=0, max_value=2**32 - 1))
        )
        a, b = SparseMask.from_dense(mask_a), SparseMask.from_dense(mask_b)
        assert a.xor(b).count_set_bits() <= a.count_set_bits() + b.count_set_bits()

    @given(_mask_arrays)
    @settings(max_examples=40, deadline=None)
    def test_positions_count_matches_flips(self, mask):
        cfg = _config({"w": mask})
        positions = cfg.flip_positions()["w"]
        assert len(positions) == cfg.total_flips()


class TestBernoulliModelProperties:
    @given(
        st.floats(min_value=1e-4, max_value=0.5),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_log_prob_of_sampled_mask_finite(self, p, n, seed):
        model = BernoulliBitFlipModel(p)
        rng = np.random.default_rng(seed)
        mask = model.sample_mask((n,), rng)
        assert np.isfinite(model.log_prob_mask(mask))

    @given(st.floats(min_value=1e-4, max_value=0.4), st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_empty_mask_is_modal_for_small_p(self, p, n):
        """Under p < 0.5 the all-zeros mask is the single most likely mask."""
        model = BernoulliBitFlipModel(p)
        empty = np.zeros(n, dtype=np.uint32)
        one_flip = empty.copy()
        one_flip[0] = 1
        assert model.log_prob_mask(empty) > model.log_prob_mask(one_flip)

    @given(st.floats(min_value=1e-5, max_value=0.2), st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_expected_flips_formula(self, p, n):
        model = BernoulliBitFlipModel(p)
        assert model.expected_flips(n) == pytest.approx(n * 32 * p)

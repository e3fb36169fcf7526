"""Property-based tests of the autodiff engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor
from repro.tensor.tensor import _unbroadcast

from .gradcheck import grad_check

_small_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


def _arrays(max_side=4, max_dims=3):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side),
        elements=_small_floats,
    )


class TestUnbroadcast:
    @given(_arrays())
    def test_same_shape_is_identity(self, arr):
        assert np.array_equal(_unbroadcast(arr, arr.shape), arr)

    @given(_arrays(max_dims=2))
    def test_gradient_of_broadcast_sums_to_total(self, arr):
        # Broadcasting arr to (3, *shape) then unbroadcasting the all-ones
        # gradient must give 3 in every slot.
        big = np.broadcast_to(arr, (3,) + arr.shape)
        grad = _unbroadcast(np.ones_like(big), arr.shape)
        assert np.allclose(grad, 3.0)


class TestAlgebraicIdentities:
    @given(_arrays(max_dims=2))
    @settings(max_examples=25, deadline=None)
    def test_add_commutes(self, arr):
        a = Tensor(arr)
        b = Tensor(arr[::-1].copy())
        assert np.allclose((a + b).data, (b + a).data)

    @given(_arrays(max_dims=2))
    @settings(max_examples=25, deadline=None)
    def test_double_negation(self, arr):
        a = Tensor(arr)
        assert np.allclose((-(-a)).data, arr)

    @given(_arrays(max_dims=2))
    @settings(max_examples=25, deadline=None)
    def test_sum_equals_numpy(self, arr):
        assert np.allclose(Tensor(arr).sum().data, arr.sum())

    @given(_arrays(max_dims=3))
    @settings(max_examples=25, deadline=None)
    def test_relu_idempotent(self, arr):
        a = Tensor(arr)
        once = a.relu()
        twice = once.relu()
        assert np.array_equal(once.data, twice.data)


class TestGradientProperties:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=4),
            elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_tanh_grad_matches_finite_difference(self, arr):
        t = Tensor(arr, requires_grad=True)
        assert grad_check(lambda x: x.tanh(), [t], rtol=1e-3, atol=1e-5)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_sum_gradient_is_ones(self, rows, cols):
        t = Tensor(np.random.default_rng(0).normal(size=(rows, cols)), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

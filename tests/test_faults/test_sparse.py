"""SparseMask and the sparse copy-on-write apply/restore path."""

import numpy as np
import pytest

from repro.bits.float32 import apply_bit_mask, positions_to_mask
from repro.faults import (
    BernoulliBitFlipModel,
    FaultConfiguration,
    SparseMask,
    TargetSpec,
    apply_configuration,
)
from repro.faults.targets import resolve_parameter_targets
from repro.nn import paper_mlp


def random_dense_mask(shape, density, rng):
    lanes = rng.integers(0, 2**32, size=shape, dtype=np.uint64).astype(np.uint32)
    keep = rng.random(shape) < density
    return np.where(keep, lanes, np.uint32(0)).astype(np.uint32)


class TestSparseMask:
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.3, 1.0])
    def test_dense_round_trip(self, density, rng):
        mask = random_dense_mask((7, 13), density, rng)
        sparse = SparseMask.from_dense(mask)
        assert np.array_equal(sparse.to_dense(), mask)
        assert sparse.count_set_bits() == int(np.unpackbits(mask.view(np.uint8)).sum())
        assert sparse.touched == int((mask != 0).sum())
        assert sparse.is_empty() == (not mask.any())

    def test_positions_round_trip(self, rng):
        shape = (5, 9)
        positions = rng.choice(np.prod(shape) * 32, size=40, replace=False)
        sparse = SparseMask.from_dense(positions_to_mask(positions, shape))
        assert np.array_equal(sparse.to_positions(), np.sort(positions))

    def test_xor_matches_dense_xor(self, rng):
        shape = (11, 6)
        a = random_dense_mask(shape, 0.2, rng)
        b = random_dense_mask(shape, 0.2, rng)
        sparse = SparseMask.from_dense(a).xor(SparseMask.from_dense(b))
        assert np.array_equal(sparse.to_dense(), a ^ b)
        # self-cancellation produces the canonical empty mask
        cancelled = SparseMask.from_dense(a).xor(SparseMask.from_dense(a))
        assert cancelled.is_empty()


class TestConfigurationStorage:
    def test_sample_stores_sparse_and_mask_densifies(self, rng):
        model = paper_mlp(rng=0)
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(1e-3), rng)
        name = targets[0][0]
        sparse = configuration.sparse(name)
        assert isinstance(sparse, SparseMask)
        dense = configuration.mask(name)  # densifies in place
        assert np.array_equal(sparse.to_dense(), dense)
        # the sparse view of dense storage stays equivalent and non-mutating
        assert configuration.sparse(name) == sparse
        assert configuration.mask(name) is dense

    def test_dense_and_sparse_storage_compare_equal(self, rng):
        mask = random_dense_mask((4, 4), 0.2, rng)
        dense_cfg = FaultConfiguration({"w": mask})
        sparse_cfg = FaultConfiguration({"w": SparseMask.from_dense(mask)})
        assert dense_cfg == sparse_cfg
        assert dense_cfg.total_flips() == sparse_cfg.total_flips()


class TestSparseCopyOnWrite:
    @pytest.fixture()
    def model_and_targets(self):
        model = paper_mlp(rng=0).eval()
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        return model, targets

    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_apply_and_restore_bit_exact(self, model_and_targets, p, rng):
        model, targets = model_and_targets
        golden = {name: param.data.copy() for name, param in targets}
        configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(p), rng)
        with apply_configuration(model, configuration):
            for name, param in targets:
                expected = apply_bit_mask(golden[name], configuration.mask(name))
                assert np.array_equal(
                    param.data.view(np.uint32), expected.view(np.uint32)
                ), f"faulted bits wrong for {name}"
        for name, param in targets:
            assert np.array_equal(param.data.view(np.uint32), golden[name].view(np.uint32))

    def test_restores_when_body_raises(self, model_and_targets, rng):
        model, targets = model_and_targets
        golden = {name: param.data.copy() for name, param in targets}
        configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.01), rng)
        assert not configuration.is_empty()
        with pytest.raises(RuntimeError, match="boom"):
            with apply_configuration(model, configuration):
                raise RuntimeError("boom")
        for name, param in targets:
            assert np.array_equal(param.data.view(np.uint32), golden[name].view(np.uint32))

    def test_dense_fallback_above_density_limit(self, model_and_targets, rng):
        """A mask touching most elements takes the full-copy path — same
        faulted bits, same restoration."""
        model, targets = model_and_targets
        name, param = targets[0]
        golden = param.data.copy()
        dense = random_dense_mask(param.shape, 0.9, rng)
        configuration = FaultConfiguration(
            {name: dense} | {n: SparseMask.empty(p.shape) for n, p in targets[1:]}
        )
        with apply_configuration(model, configuration):
            expected = apply_bit_mask(golden, dense)
            assert np.array_equal(param.data.view(np.uint32), expected.view(np.uint32))
        assert np.array_equal(param.data.view(np.uint32), golden.view(np.uint32))

    def test_empty_targets_not_saved(self, model_and_targets):
        """The no-fault configuration is a true no-op (no copies, no writes)."""
        model, targets = model_and_targets
        configuration = FaultConfiguration.empty(targets)
        before = [param.data for _, param in targets]
        with apply_configuration(model, configuration):
            for (_, param), data in zip(targets, before):
                assert param.data is data

"""Block draws: ``sample_block`` is that many ``sample`` calls, folded once.

The differential oracle draws every row's masks with the dense per-target
``for_target(name).sample_mask`` on a cloned generator, in (row, target)
order, and compares masks, per-row flip counts, the per-target folds and
the generator state afterwards.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bits.float32 import BITS_PER_FLOAT, positions_to_mask
from repro.faults import (
    BernoulliBitFlipModel,
    BurstBitFlipModel,
    ByteErrorModel,
    ConfigurationBlock,
    FaultConfiguration,
    FaultModel,
    HeterogeneousBitFlipModel,
    SingleBitFlipModel,
    TargetSpec,
    resolve_parameter_targets,
)
from repro.nn import paper_mlp
from repro.protect import ProtectedFaultModel

from .test_configuration import SAMPLED_MODELS

PROBABILITIES = (0.0, 1e-5, 0.05, 1.0)


class DuplicateDraws(FaultModel):
    """Positions drawn with replacement: duplicates must fold to one flip (OR, not XOR)."""

    def __init__(self, p: float) -> None:
        self.p = p

    def sample_positions(self, shape, rng):
        bits = int(np.prod(shape)) * BITS_PER_FLOAT
        return rng.integers(0, bits, size=int(rng.binomial(bits, self.p)))

    def sample_mask(self, shape, rng):
        return positions_to_mask(self.sample_positions(shape, rng), shape)


def model_at(name: str, p: float) -> FaultModel:
    """The ``SAMPLED_MODELS`` entry ``name`` at flip probability ``p``."""
    if name == "bernoulli":
        return BernoulliBitFlipModel(p)
    if name == "bernoulli-lanes":
        return BernoulliBitFlipModel(p, bits=tuple(SAMPLED_MODELS[name].bits))
    if name == "heterogeneous":
        return HeterogeneousBitFlipModel(np.linspace(0.0, p, BITS_PER_FLOAT))
    if name == "burst":
        return BurstBitFlipModel(p, burst_length=3)
    if name in ("single", "byte"):  # one fault per tensor, whatever p
        return SingleBitFlipModel() if name == "single" else ByteErrorModel()
    if name == "protected":
        return ProtectedFaultModel(BernoulliBitFlipModel(p), SAMPLED_MODELS[name].scheme)
    if name == "duplicates":
        return DuplicateDraws(p)
    raise KeyError(name)


@pytest.fixture(scope="module")
def targets():
    return resolve_parameter_targets(paper_mlp(rng=0), TargetSpec.weights_and_biases())


def assert_block_matches_per_row_draws(targets, model, rows, seed):
    block = FaultConfiguration.sample_block(targets, model, np.random.default_rng(seed), rows)
    clone = np.random.default_rng(seed)
    assert len(block) == rows
    expected_rows = [
        {name: model.for_target(name).sample_mask(param.shape, clone) for name, param in targets}
        for _ in range(rows)
    ]
    reference = np.random.default_rng(seed)
    FaultConfiguration.sample_block(targets, model, reference, rows)
    assert reference.bit_generator.state == clone.bit_generator.state

    for row, expected in zip(block.rows, expected_rows):
        assert row.names() == [name for name, _ in targets]
        for name, mask in expected.items():
            got = row.sparse(name).to_dense()
            assert got.dtype == np.uint32 and got.shape == mask.shape
            np.testing.assert_array_equal(got, mask)
    assert block.flips.tolist() == [row.total_flips() for row in block.rows]

    # each fold addresses the flattened (rows, *shape) stack
    for name, param in targets:
        index, lanes = block.fold(name)
        stack = np.zeros((rows, param.data.size), dtype=np.uint32)
        stack.reshape(-1)[index] = lanes
        assert np.all(np.diff(index) > 0)
        for i, expected in enumerate(expected_rows):
            np.testing.assert_array_equal(stack[i], expected[name].reshape(-1))


class TestSampleBlock:
    def test_every_sampled_model_is_covered(self):
        for name in SAMPLED_MODELS:
            model_at(name, 0.05)

    @pytest.mark.parametrize("name", sorted(SAMPLED_MODELS) + ["duplicates"])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.integers(1, 130), p=st.sampled_from(PROBABILITIES), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_per_row_dense_draws(self, targets, name, rows, p, seed):
        assert_block_matches_per_row_draws(targets, model_at(name, p), rows, seed)

    @pytest.mark.parametrize("rows", [63, 64, 65, 130])
    @pytest.mark.parametrize("name", ["bernoulli", "bernoulli-lanes", "duplicates"])
    def test_block_boundaries(self, targets, name, rows):
        assert_block_matches_per_row_draws(targets, model_at(name, 0.05), rows, seed=rows)

    def test_sample_is_row_zero_of_a_one_row_block(self, targets):
        model = BernoulliBitFlipModel(0.05)
        one = FaultConfiguration.sample(targets, model, np.random.default_rng(3))
        block = FaultConfiguration.sample_block(targets, model, np.random.default_rng(3), 1)
        assert one == block.rows[0]

    @pytest.mark.parametrize("rows", [0, -1])
    def test_rows_must_be_positive(self, targets, rows):
        with pytest.raises(ValueError, match="rows must be positive"):
            FaultConfiguration.sample_block(targets, BernoulliBitFlipModel(0.1), np.random.default_rng(0), rows)


class FixedPositions(FaultModel):
    """Returns the queued position arrays in turn (one per draw)."""

    def __init__(self, draws):
        self.draws = list(draws)

    def sample_positions(self, shape, rng):
        return np.asarray(self.draws.pop(0), dtype=np.int64)


class TestRangeCheck:
    """Each row's positions are checked against one row's bit space, not the block's."""

    @pytest.fixture()
    def one_target(self, targets):
        return targets[:1]

    def bits(self, one_target):
        return one_target[0][1].data.size * BITS_PER_FLOAT

    def test_position_past_the_row_raises_even_inside_the_block(self, one_target):
        model = FixedPositions([[self.bits(one_target)], [0]])
        with pytest.raises(ValueError, match="out of range"):
            FaultConfiguration.sample_block(one_target, model, np.random.default_rng(0), 2)

    def test_negative_position_raises(self, one_target):
        model = FixedPositions([[5], [-1, 3]])
        with pytest.raises(ValueError, match="out of range"):
            FaultConfiguration.sample_block(one_target, model, np.random.default_rng(0), 2)

    def test_last_bit_of_each_row_is_in_range(self, one_target):
        last = self.bits(one_target) - 1
        model = FixedPositions([[last], [0, last]])
        block = FaultConfiguration.sample_block(one_target, model, np.random.default_rng(0), 2)
        assert block.flips.tolist() == [1, 2]


class TestBlockViews:
    """Slices and selections re-address each fold to the sub-block's stack."""

    @pytest.fixture()
    def block(self, targets):
        return FaultConfiguration.sample_block(targets, BernoulliBitFlipModel(2e-3), np.random.default_rng(5), 40)

    @staticmethod
    def assert_folds_match_rows(block, targets):
        lazy = ConfigurationBlock.of(block.rows)
        for name, _ in targets:
            for got, expected in zip(block.fold(name), lazy.fold(name)):
                np.testing.assert_array_equal(got, expected)
        assert block.flips.tolist() == lazy.flips.tolist()

    @pytest.mark.parametrize("start, stop", [(0, 8), (8, 16), (33, 40), (5, 5), (0, 40)])
    def test_slice(self, block, targets, start, stop):
        sub = block[start:stop]
        assert sub.rows == block.rows[start:stop]
        self.assert_folds_match_rows(sub, targets)

    def test_select_with_gaps(self, block, targets):
        positions = np.flatnonzero(block.flips)[::3]
        sub = block.select(positions)
        assert [id(row) for row in sub] == [id(block.rows[i]) for i in positions]
        self.assert_folds_match_rows(sub, targets)
        self.assert_folds_match_rows(sub.select(np.arange(1, len(sub), 2)), targets)

    def test_step_slices_are_rejected(self, block):
        with pytest.raises(ValueError, match="step 1"):
            block[::2]

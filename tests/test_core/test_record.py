"""Detailed flip counters: one pass per block equals one pass per configuration."""

import numpy as np
import pytest

import repro.obs as obs
from repro.bits.float32 import count_set_bits
from repro.core import BayesianFaultInjector
from repro.core.injector import _FIELD_MASKS, _record_configurations
from repro.faults import (
    BernoulliBitFlipModel,
    ConfigurationBlock,
    FaultConfiguration,
    TargetSpec,
    resolve_parameter_targets,
)
from repro.mcmc.proposals import BlockResample, MixtureProposal, SingleBitToggle
from repro.nn import paper_mlp
from repro.obs.metrics import MetricsRegistry

MANTISSA_LANES = tuple(range(0, 23))


def record_each(metrics, configuration):
    """The oracle: per-configuration counting, one sparse view per target."""
    metrics.inc("forward_passes")
    for name, sparse in configuration.sparse_items():
        flips = sparse.count_set_bits()
        if not flips:
            continue
        metrics.inc(f"flips.layer.{name}", flips)
        for field, bits in _FIELD_MASKS:
            in_field = count_set_bits(sparse.lane_masks & bits)
            if in_field:
                metrics.inc(f"flips.field.{field}", in_field)


def counters(rows, record):
    registry = MetricsRegistry()
    record(registry, rows)
    return registry.snapshot()


def oracle(rows):
    def record(registry, rows):
        for row in rows:
            record_each(registry, row)

    return counters(rows, record)


@pytest.fixture(scope="module")
def targets():
    return resolve_parameter_targets(paper_mlp(rng=0), TargetSpec.weights_and_biases())


class TestRecordConfigurations:
    @pytest.mark.parametrize("p", [0.0, 1e-4, 0.05])
    @pytest.mark.parametrize("rows", [1, 64, 70])
    def test_sampled_block_equals_per_configuration_counts(self, targets, p, rows):
        block = FaultConfiguration.sample_block(
            targets, BernoulliBitFlipModel(p), np.random.default_rng(rows), rows
        )
        assert counters(block, _record_configurations) == oracle(block.rows)
        if rows > 9:
            assert counters(block[3:9], _record_configurations) == oracle(block.rows[3:9])

    def test_dense_mcmc_rows(self, targets):
        model = BernoulliBitFlipModel(0.02)
        rng = np.random.default_rng(11)
        proposal = MixtureProposal(
            [(SingleBitToggle(targets, bits_per_toggle=3), 0.5), (BlockResample(targets, model), 0.5)]
        )
        state = FaultConfiguration.sample(targets, model, rng)
        rows = []
        for _ in range(12):
            state, _ = proposal.propose(state, rng)
            rows.append(FaultConfiguration({name: state.mask(name).copy() for name, _ in targets}))
        rows.append(FaultConfiguration.empty(targets))
        rows.append(FaultConfiguration({}))
        rows.append(FaultConfiguration({targets[1][0]: state.mask(targets[1][0]).copy()}))
        assert any(isinstance(row._masks.get(targets[0][0]), np.ndarray) for row in rows)
        assert counters(ConfigurationBlock.of(rows), _record_configurations) == oracle(rows)

    def test_fields_and_layers_without_flips_create_no_key(self, targets):
        block = FaultConfiguration.sample_block(
            targets, BernoulliBitFlipModel(0.05, bits=MANTISSA_LANES), np.random.default_rng(2), 20
        )
        recorded = counters(block, _record_configurations)["counters"]
        assert "flips.field.mantissa" in recorded
        assert "flips.field.sign" not in recorded and "flips.field.exponent" not in recorded
        empty = counters(ConfigurationBlock.of([FaultConfiguration.empty(targets)] * 3), _record_configurations)
        assert empty["counters"] == {"forward_passes": 3}


def test_fast_forward_campaign_digest_equals_standard(moons_eval, trained_mlp):
    """Under a metrics session the blocked fast path counts what the standard one does."""
    eval_x, eval_y = moons_eval
    digests = {}
    for fast in (True, False):
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=4, fast=fast
        )
        with obs.Session(metrics=True):
            result = injector.forward_campaign(3e-3, samples=150, chains=2)
        digests[fast] = result.metrics
    # FP error *event* counts are op-granular and differ by design (see
    # BatchedNetworkEvaluator.evaluate_logits); every other counter matches
    fast, standard = (
        {name: value for name, value in digests[key]["counters"].items() if not name.startswith("hazard.fp_")}
        for key in (True, False)
    )
    assert fast["forward_passes"] == 150
    assert any(name.startswith("flips.layer.") for name in fast)
    assert fast == standard
    assert digests[True]["gauges"] == digests[False]["gauges"]

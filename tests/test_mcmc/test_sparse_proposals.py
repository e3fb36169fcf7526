"""The sparse proposals propose exactly what the dense ones did.

:class:`SingleBitToggle` and :class:`BlockResample` build candidates from
sparse masks. The references below keep their earlier dense bodies: copy
the state, densify every target, XOR a dense one-bit mask in, or swap in
a dense ``sample_mask`` draw with the Hastings ratio from
``log_prob_mask``. A chain stepped through the injector's
:class:`MixtureProposal` must propose the same masks with the same log
Hastings floats and leave its generator in the same state, step for step.
"""

import numpy as np
import pytest

from repro.bits.fields import EXPONENT_BITS
from repro.bits.float32 import positions_to_mask
from repro.core import BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec
from repro.mcmc import BlockResample, SingleBitToggle
from repro.nn import paper_mlp

STEPS = 240


def _dense_copy(state):
    return {name: state.sparse(name).to_dense() for name in state.names()}


def _dense_toggle(toggle, state, rng):
    positions = rng.choice(toggle.total_bits, size=toggle.bits_per_toggle, replace=False)
    masks = _dense_copy(state)
    for pos in np.sort(positions):
        target_idx = int(np.searchsorted(toggle._offsets, pos, side="right") - 1)
        name = toggle._names[target_idx]
        local = int(pos - toggle._offsets[target_idx])
        masks[name] = masks[name] ^ positions_to_mask(np.asarray([local]), toggle._shapes[name])
    return FaultConfiguration(masks), 0.0


def _dense_resample(resample, state, rng):
    index = int(rng.integers(0, len(resample._targets)))
    name, param = resample._targets[index]
    target_model = resample.fault_model.for_target(name)
    new_mask = target_model.sample_mask(param.shape, rng)
    masks = _dense_copy(state)
    old_mask = masks[name]
    masks[name] = new_mask
    log_hastings = target_model.log_prob_mask(old_mask) - target_model.log_prob_mask(new_mask)
    return FaultConfiguration(masks), log_hastings


def _dense_mixture(mixture, state, rng):
    index = rng.choice(len(mixture._proposals), p=mixture._weights)
    component = mixture._proposals[index]
    propose = _dense_toggle if isinstance(component, SingleBitToggle) else _dense_resample
    return propose(component, state, rng)


@pytest.mark.parametrize("bits", [None, EXPONENT_BITS], ids=["all-lanes", "exponent-lanes"])
@pytest.mark.parametrize("toggle_weight", [0.5, 0.8])
def test_mixture_proposes_as_the_dense_bodies(bits, toggle_weight):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2)).astype(np.float32)
    y = rng.integers(0, 2, size=6)
    injector = BayesianFaultInjector(paper_mlp(rng=0).eval(), x, y, spec=TargetSpec.weights_and_biases())
    fault_model = BernoulliBitFlipModel(2e-3, bits=bits)
    mixture = injector._make_proposal(fault_model, toggle_weight, 1.0 - toggle_weight)
    assert {type(component) for component in mixture._proposals} == {SingleBitToggle, BlockResample}

    sparse_rng, dense_rng, accept_rng = (np.random.default_rng(31) for _ in range(3))
    state = FaultConfiguration.sample(injector.parameter_targets, fault_model, sparse_rng)
    reference = FaultConfiguration(_dense_copy(FaultConfiguration.sample(
        injector.parameter_targets, fault_model, dense_rng
    )))
    for step in range(STEPS):
        candidate, log_hastings = mixture.propose(state, sparse_rng)
        want, want_log_hastings = _dense_mixture(mixture, reference, dense_rng)
        assert candidate.names() == want.names()
        for name in want.names():
            assert np.array_equal(candidate.sparse(name).to_dense(), want.mask(name)), (step, name)
        assert log_hastings == want_log_hastings, step
        assert sparse_rng.bit_generator.state == dense_rng.bit_generator.state, step
        if accept_rng.random() < 0.6:  # walk on, so later steps start from varied states
            state, reference = candidate, want

"""Applying fault configurations: parameter XOR and hook injectors."""

import numpy as np
import pytest

from repro.faults import (
    ActivationInjector,
    BernoulliBitFlipModel,
    FaultConfiguration,
    InputInjector,
    TargetSpec,
    apply_configuration,
    inject_parameters,
    resolve_activation_modules,
    resolve_parameter_targets,
)
from repro.nn import paper_mlp
from repro.tensor import Tensor, no_grad


@pytest.fixture()
def model():
    return paper_mlp(rng=0).eval()


@pytest.fixture()
def batch():
    return Tensor(np.random.default_rng(0).normal(size=(6, 2)).astype(np.float32))


def _snapshot(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


class TestParameterInjection:
    def test_restores_exact_bits(self, model, batch, rng):
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        before = _snapshot(model)
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.1), rng)
        with apply_configuration(model, cfg):
            pass
        after = _snapshot(model)
        for name in before:
            assert np.array_equal(before[name].view(np.uint32), after[name].view(np.uint32))

    def test_faults_active_inside_context(self, model, batch, rng):
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        with no_grad():
            clean = model(batch).data.copy()
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.05), rng)
        with apply_configuration(model, cfg), no_grad(), np.errstate(all="ignore"):
            faulted = model(batch).data.copy()
        assert not np.array_equal(clean, faulted)

    def test_restores_after_exception(self, model, rng):
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        before = _snapshot(model)
        cfg = FaultConfiguration.sample(targets, BernoulliBitFlipModel(0.2), rng)
        with pytest.raises(RuntimeError):
            with apply_configuration(model, cfg):
                raise RuntimeError("mid-campaign crash")
        after = _snapshot(model)
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_inject_parameters_yields_configuration(self, model, rng):
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        with inject_parameters(model, targets, BernoulliBitFlipModel(0.1), rng) as cfg:
            assert isinstance(cfg, FaultConfiguration)
            assert set(cfg.names()) == {n for n, _ in targets}

    def test_empty_configuration_is_noop(self, model, batch):
        targets = resolve_parameter_targets(model, TargetSpec.weights_and_biases())
        with no_grad():
            clean = model(batch).data.copy()
        with apply_configuration(model, FaultConfiguration.empty(targets)), no_grad():
            faulted = model(batch).data.copy()
        assert np.array_equal(clean, faulted)


class TestActivationInjection:
    def test_corrupts_once_per_module_per_pass(self, model, batch, rng):
        modules = resolve_activation_modules(model, TargetSpec.all_surfaces())
        with ActivationInjector(modules, BernoulliBitFlipModel(0.01), rng) as injector:
            with no_grad(), np.errstate(all="ignore"):
                model(batch)
                model(batch)
        assert injector.corruption_count == 2 * len(modules)

    def test_hooks_removed_on_exit(self, model, batch, rng):
        modules = resolve_activation_modules(model, TargetSpec.all_surfaces())
        with no_grad():
            clean = model(batch).data.copy()
        with ActivationInjector(modules, BernoulliBitFlipModel(0.1), rng):
            pass
        with no_grad():
            after = model(batch).data.copy()
        assert np.array_equal(clean, after)

    def test_high_p_changes_output(self, model, batch, rng):
        modules = resolve_activation_modules(model, TargetSpec.all_surfaces())
        with no_grad():
            clean = model(batch).data.copy()
        with ActivationInjector(modules, BernoulliBitFlipModel(0.05), rng):
            with no_grad(), np.errstate(all="ignore"):
                faulted = model(batch).data.copy()
        assert not np.array_equal(clean, faulted)

    def test_zero_rate_resnet_run_is_bit_identical(self, tiny_resnet, tiny_images, rng):
        x = Tensor(tiny_images[0])
        with no_grad():
            golden = tiny_resnet(x).data.copy()
        modules = resolve_activation_modules(tiny_resnet, TargetSpec.all_surfaces())
        assert len(modules) == 41
        with ActivationInjector(modules, BernoulliBitFlipModel(0.0), rng) as injector:
            with no_grad():
                logits = tiny_resnet(x).data
        assert injector.corruption_count == len(modules)
        assert logits.dtype == golden.dtype == np.float32
        assert np.array_equal(logits.view(np.uint32), golden.view(np.uint32))

    def test_non_float32_activation_is_rejected(self, rng):
        injector = ActivationInjector([], BernoulliBitFlipModel(0.0), rng)
        with pytest.raises(TypeError, match="float64"):
            injector._corrupt_tensor(Tensor(np.zeros(3, dtype=np.float64)))


class TestInputInjection:
    def test_input_corruption_changes_output(self, model, batch, rng):
        with no_grad():
            clean = model(batch).data.copy()
        with InputInjector(model, BernoulliBitFlipModel(0.05), rng) as injector:
            with no_grad(), np.errstate(all="ignore"):
                faulted = model(batch).data.copy()
        assert injector.corruption_count == 1
        assert not np.array_equal(clean, faulted)

    def test_original_input_tensor_untouched(self, model, batch, rng):
        original = batch.data.copy()
        with InputInjector(model, BernoulliBitFlipModel(0.1), rng):
            with no_grad(), np.errstate(all="ignore"):
                model(batch)
        assert np.array_equal(batch.data, original)

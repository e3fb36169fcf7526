"""The segment engine must be bit-identical to the standard path.

One differential oracle: every row of
:meth:`BatchedNetworkEvaluator.evaluate_logits`, and every value of the
single-configuration statistic built on it, is compared at the bit level
against the sequential ``apply_configuration`` + ``model(x)`` reference,
across architectures, batch sizes and flip probabilities, and across
chunks mixing golden (fault-free) rows with live ones. The remaining
tests pin the engine's edge cases, the fast forward-campaign executor and
the ``fast`` knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchedNetworkEvaluator,
    BayesianFaultInjector,
    GoldenTrace,
    NumericalHazardGuard,
    hazard_aware_error,
)
from repro.faults import (
    BernoulliBitFlipModel,
    ConfigurationBlock,
    FaultConfiguration,
    FaultSurface,
    TargetSpec,
    apply_configuration,
)
from repro.nn import Dense, LeNet, MLP, Sequential
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import no_grad

EXPONENT_LANES = tuple(range(23, 31))
MANTISSA_LANES = tuple(range(0, 23))


def sequential_logits(injector, configuration):
    with apply_configuration(injector.model, configuration), no_grad(), np.errstate(all="ignore"):
        return injector.model(injector._x).data


def as_bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_bit_identical(engine, injector, configurations):
    batched = engine.evaluate_logits(ConfigurationBlock.of(configurations))
    for i, configuration in enumerate(configurations):
        reference = sequential_logits(injector, configuration)
        assert batched[i].dtype == reference.dtype
        assert batched[i].dtype == np.float32
        assert np.array_equal(as_bits(batched[i]), as_bits(reference)), (
            f"configuration {i} diverged from the sequential path"
        )


def snapshot(injector):
    return {name: param.data.copy() for name, param in injector.parameter_targets}


def assert_untouched(injector, golden):
    for name, param in injector.parameter_targets:
        assert np.array_equal(param.data.view(np.uint32), golden[name].view(np.uint32)), name


@pytest.fixture(scope="module")
def lenet_setup():
    rng = np.random.default_rng(1234)
    model = LeNet(in_channels=3, image_size=12, rng=0).eval()
    x = rng.normal(size=(6, 3, 12, 12)).astype(np.float32)
    y = rng.integers(0, 10, size=6).astype(np.int64)
    return model, x, y


@pytest.fixture()
def lenet_injector(lenet_setup):
    model, x, y = lenet_setup
    return BayesianFaultInjector(model, x, y, spec=TargetSpec.weights_and_biases(), seed=3)


@pytest.fixture()
def resnet_injector(tiny_resnet, tiny_images):
    x, y = tiny_images
    return BayesianFaultInjector(
        tiny_resnet, x, y, spec=TargetSpec.single_layer("stages.2.0.conv1"), seed=3
    )


def full_batch_injector(request, arch):
    """The parameter-surface injector of one architecture on its whole eval batch."""
    if arch == "mlp":
        eval_x, eval_y = request.getfixturevalue("moons_eval")
        return BayesianFaultInjector(
            request.getfixturevalue("trained_mlp"), eval_x, eval_y,
            spec=TargetSpec.weights_and_biases(), seed=3,
        )
    return request.getfixturevalue(f"{arch}_injector")


@pytest.fixture()
def arch_injector(request):
    """A parameter-surface injector per architecture id."""
    return full_batch_injector(request, request.param)


#: parameterised layers an ``arch@n`` oracle input faults, one at a time
SMALL_BATCH_LAYERS = 12


@pytest.fixture()
def oracle_injectors(request, lenet_setup, tiny_resnet, tiny_images):
    """The differential oracle's injectors per input id.

    ``arch`` is :func:`arch_injector`'s full-batch injector. ``arch@n``
    runs on the first ``n`` images, one single-layer injector per
    parameterised layer (a seeded sample of ResNet's 41). The standard
    path's conv GEMMs are smallest there, so an engine GEMM of another call
    shape (bigger, or a GEMM where ``conv2d`` runs a GEMV) would pick
    another BLAS kernel and summation order.
    """
    arch, _, images = request.param.partition("@")
    if not images:
        return [full_batch_injector(request, arch)]
    model, x, y = lenet_setup if arch == "lenet" else (tiny_resnet, *tiny_images)
    x, y = x[: int(images)], y[: int(images)]
    trace = GoldenTrace(model, x)
    layers = [name for name, module in model.named_modules() if module._parameters]
    if len(layers) > SMALL_BATCH_LAYERS:
        layers = np.random.default_rng(0).choice(layers, SMALL_BATCH_LAYERS, replace=False).tolist()
    return [
        BayesianFaultInjector(model, x, y, spec=TargetSpec.single_layer(layer), seed=3, trace=trace)
        for layer in layers
    ]


def layer_injector(model_id, layer, trained_mlp, moons_eval, tiny_resnet, tiny_images):
    model, (x, y) = (trained_mlp, moons_eval) if model_id == "mlp" else (tiny_resnet, tiny_images)
    return BayesianFaultInjector(model, x, y, spec=TargetSpec.single_layer(layer), seed=3)


@pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize(
    "oracle_injectors",
    ["mlp", "lenet", "resnet", "lenet@1", "lenet@2", "resnet@1", "resnet@2"],
    indirect=True,
)
def test_engine_matches_standard_forward(oracle_injectors, k, p, rng):
    """The differential oracle: engine rows and statistic vs ``model(x)``."""
    for injector in oracle_injectors:
        engine = injector._engine()
        assert engine is not None
        fault_model = BernoulliBitFlipModel(p)
        configurations = [
            FaultConfiguration.sample(injector.parameter_targets, fault_model, rng) for _ in range(k)
        ]
        assert_bit_identical(engine, injector, configurations)

        golden = snapshot(injector)
        statistic = injector.make_statistic(fault_model, rng)
        for configuration in configurations:
            value = statistic(configuration)
            expected = hazard_aware_error(sequential_logits(injector, configuration), injector.labels)
            assert np.array_equal(as_bits(np.float64(value)), as_bits(np.float64(expected)))
        assert_untouched(injector, golden)  # the fast statistic never applies a configuration


class TestBatchedBitIdentity:
    def test_empty_configurations_give_golden_logits(self, lenet_injector):
        engine = lenet_injector._engine()
        empty = [FaultConfiguration.empty(lenet_injector.parameter_targets) for _ in range(3)]
        assert_bit_identical(engine, lenet_injector, empty)
        for row in engine.evaluate_logits(ConfigurationBlock.of(empty)):
            assert np.array_equal(as_bits(row), as_bits(lenet_injector._golden_logits))

    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_lenet_all_layers(self, lenet_injector, p, rng):
        model = BernoulliBitFlipModel(p)
        configurations = [
            FaultConfiguration.sample(lenet_injector.parameter_targets, model, rng)
            for _ in range(4)
        ]
        assert_bit_identical(lenet_injector._engine(), lenet_injector, configurations)

    @pytest.mark.parametrize("p", [1e-3, 0.5])
    def test_resnet_mid_layer(self, resnet_injector, p, rng):
        model = BernoulliBitFlipModel(p)
        configurations = [
            FaultConfiguration.sample(resnet_injector.parameter_targets, model, rng)
            for _ in range(4)
        ]
        assert_bit_identical(resnet_injector._engine(), resnet_injector, configurations)

    def test_error_taxonomy_matches_guard(self, lenet_injector, rng):
        """The fast statistic scores and counts hazards like the standard one."""
        fault_model = BernoulliBitFlipModel(0.05, bits=EXPONENT_LANES)
        configurations = [
            FaultConfiguration.sample(lenet_injector.parameter_targets, fault_model, rng)
            for _ in range(6)
        ]
        guards = {fast: NumericalHazardGuard() for fast in (None, False)}
        values = {
            fast: [lenet_injector.make_statistic(None, rng, guard=guard, fast=fast)(c) for c in configurations]
            for fast, guard in guards.items()
        }
        assert values[None] == values[False]
        fast_report, standard_report = (guard.report() for guard in guards.values())
        assert standard_report.hazard_rows > 0, "regime failed to trigger hazards"
        assert (fast_report.evaluations, fast_report.rows, fast_report.hazard_rows) == (
            standard_report.evaluations, standard_report.rows, standard_report.hazard_rows
        )

    def test_empty_configuration_list_rejected(self, lenet_injector):
        with pytest.raises(ValueError, match="at least one"):
            lenet_injector._engine().evaluate_logits(ConfigurationBlock.of([]))

    def test_flipped_exponent_becomes_hazard_row(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.single_layer("layers.2"), seed=0
        )
        masks = {name: np.zeros(p.shape, dtype=np.uint32) for name, p in injector.parameter_targets}
        weight_bits = dict(injector.parameter_targets)["layers.2.weight"].data.view(np.uint32)
        # set every exponent bit of one output weight: its logit column turns non-finite
        masks["layers.2.weight"][0, 0] = ~weight_bits[0, 0] & np.uint32(0x7F800000)
        configuration = FaultConfiguration(masks)
        assert_bit_identical(injector._engine(), injector, [configuration])

        guard = NumericalHazardGuard()
        value = injector.make_statistic(None, np.random.default_rng(0), guard=guard)(configuration)
        assert value == 1.0
        assert guard.report().hazard_rows == len(eval_y)

    @pytest.mark.parametrize(
        "model_id,layer,cut",
        [
            ("mlp", "layers.0", 1),  # only the synthetic flatten precedes it
            ("mlp", "layers.2", 3),
            ("resnet", "stem.0", 0),
            ("resnet", "stages.3.1.conv2", None),
            ("resnet", "fc", None),
        ],
    )
    def test_every_cut_position(
        self, model_id, layer, cut, trained_mlp, moons_eval, tiny_resnet, tiny_images, rng
    ):
        injector = layer_injector(model_id, layer, trained_mlp, moons_eval, tiny_resnet, tiny_images)
        engine = injector._engine()
        if cut is not None:
            assert engine.cut == cut
        else:
            assert engine.cut == engine.owners[f"{layer}.weight"] > 0
        for p in (1e-3, 0.5):
            configurations = [
                FaultConfiguration.sample(injector.parameter_targets, BernoulliBitFlipModel(p), rng)
                for _ in range(3)
            ]
            assert_bit_identical(engine, injector, configurations)

    def test_engine_built_once(self, lenet_injector):
        engine = lenet_injector._engine()
        assert lenet_injector._engine() is engine
        assert lenet_injector._engine(True) is engine

    @pytest.mark.parametrize(
        "lanes", [None, (31,), EXPONENT_LANES, MANTISSA_LANES], ids=["all", "sign", "exp", "mant"]
    )
    def test_lane_restrictions(self, lenet_injector, lanes, rng):
        model = BernoulliBitFlipModel(0.01, bits=lanes)
        configurations = [
            FaultConfiguration.sample(lenet_injector.parameter_targets, model, rng)
            for _ in range(3)
        ]
        assert_bit_identical(lenet_injector._engine(), lenet_injector, configurations)

    def test_no_fault_leakage_into_golden_model(self, lenet_injector, rng):
        """The sweep stacks faulted copies; the live parameters never change."""
        golden = snapshot(lenet_injector)
        configurations = [
            FaultConfiguration.sample(
                lenet_injector.parameter_targets, BernoulliBitFlipModel(0.1), rng
            )
            for _ in range(4)
        ]
        lenet_injector._engine().evaluate_logits(ConfigurationBlock.of(configurations))
        assert_untouched(lenet_injector, golden)


#: faulted layers per architecture; the ResNet's mid-network conv puts the
#: cut deep in the chain, and its ``fc`` lets a flipped exponent reach the logits
GOLDEN_ROW_LAYERS = {"mlp": None, "lenet": None, "resnet": ("stages.2.0.conv1", "fc")}


@pytest.fixture(scope="module")
def golden_row_injectors(lenet_setup, trained_mlp, moons_eval, tiny_resnet, tiny_images):
    """One parameter-surface injector per architecture, shared by hypothesis examples."""
    setups = {
        "mlp": (trained_mlp, *moons_eval),
        "lenet": lenet_setup,
        "resnet": (tiny_resnet, *tiny_images),
    }
    injectors = {}
    for arch, (model, x, y) in setups.items():
        spec = TargetSpec.weights_and_biases(include_layers=GOLDEN_ROW_LAYERS[arch])
        injectors[arch] = BayesianFaultInjector(model, x, y, spec=spec, seed=3)
    return injectors


def exponent_row(targets):
    """Every exponent bit of the last target's first element set: a hazard row."""
    masks = {name: np.zeros(param.shape, dtype=np.uint32) for name, param in targets}
    name, param = targets[-1]
    bits = param.data.reshape(-1).view(np.uint32)
    masks[name].reshape(-1)[0] = ~bits[0] & np.uint32(0x7F800000)
    return FaultConfiguration(masks)


ROW_KINDS = ("live", "hazard", "empty", "dense-zero", "no-targets")


def pattern_rows(injector, kinds, rng):
    """One configuration per drawn row kind; every ``live`` row flips a bit."""
    targets = injector.parameter_targets
    rows = []
    for kind in kinds:
        if kind == "live":
            configuration = FaultConfiguration.empty(targets)
            while configuration.is_empty():
                configuration = FaultConfiguration.sample(targets, BernoulliBitFlipModel(1e-3), rng)
        elif kind == "hazard":
            configuration = exponent_row(targets)
        elif kind == "empty":
            configuration = FaultConfiguration.empty(targets)
        elif kind == "dense-zero":
            configuration = FaultConfiguration(
                {name: np.zeros(param.shape, dtype=np.uint32) for name, param in targets}
            )
        else:  # a row without any target
            configuration = FaultConfiguration({})
        rows.append(configuration)
    return rows



class TestGoldenRows:
    """Fault-free rows come from the golden trace; only live rows run segments."""

    @settings(max_examples=40, deadline=None)
    @given(
        arch=st.sampled_from(sorted(GOLDEN_ROW_LAYERS)),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_mixed_chunks_match_sequential_and_standard_counters(
        self, golden_row_injectors, arch, kinds, seed
    ):
        injector = golden_row_injectors[arch]
        rng = np.random.default_rng(seed)
        configurations = pattern_rows(injector, kinds, rng)
        assert [c.is_empty() for c in configurations] == [k not in ("live", "hazard") for k in kinds]

        fast_guard, standard_guard = NumericalHazardGuard(), NumericalHazardGuard()
        logits = injector._engine().evaluate_logits(
            ConfigurationBlock.of(configurations), guard=fast_guard
        )
        assert logits.shape[0] == len(configurations)
        for i, configuration in enumerate(configurations):
            reference = sequential_logits(injector, configuration)
            assert logits[i].dtype == reference.dtype
            assert logits[i].dtype == np.float32
            assert np.array_equal(as_bits(logits[i]), as_bits(reference)), (kinds, i)

        values = fast_guard.score_rows(logits, injector.labels)
        statistic = injector.make_statistic(None, rng, guard=standard_guard, fast=False)
        expected = np.array([statistic(configuration) for configuration in configurations])
        assert np.array_equal(as_bits(values), as_bits(expected))
        fast_report, standard_report = fast_guard.report(), standard_guard.report()
        counters = ("evaluations", "rows", "hazard_rows", "hazard_evaluations")
        assert [getattr(fast_report, c) for c in counters] == [
            getattr(standard_report, c) for c in counters
        ]
        if "hazard" in kinds:
            assert standard_report.hazard_rows > 0, "exponent row failed to trigger a hazard"

    @pytest.fixture()
    def segment_calls(self, lenet_injector, monkeypatch):
        """The configuration lists :meth:`run_segments` receives."""
        engine = lenet_injector._engine()
        calls = []
        run_segments = engine.run_segments

        def spy(configurations, *args, **kwargs):
            calls.append(list(configurations))
            return run_segments(configurations, *args, **kwargs)

        monkeypatch.setattr(engine, "run_segments", spy)
        return calls

    def test_only_live_rows_run_segments(self, lenet_injector, segment_calls, rng):
        kinds = ["empty", "live", "no-targets", "hazard", "live", "dense-zero"]
        configurations = pattern_rows(lenet_injector, kinds, rng)
        assert_bit_identical(lenet_injector._engine(), lenet_injector, configurations)
        live = [c for c, kind in zip(configurations, kinds) if kind in ("live", "hazard")]
        assert len(segment_calls) == 1
        assert [id(c) for c in segment_calls[0]] == [id(c) for c in live]

    def test_all_golden_chunk_runs_no_segment(self, lenet_injector, segment_calls):
        targets = lenet_injector.parameter_targets
        configurations = [FaultConfiguration.empty(targets), FaultConfiguration({})]
        logits = lenet_injector._engine().evaluate_logits(ConfigurationBlock.of(configurations))
        assert segment_calls == []
        assert logits.shape == (2,) + lenet_injector.trace.logits.shape
        for row in logits:
            assert np.array_equal(as_bits(row), as_bits(lenet_injector.trace.logits))
        with pytest.raises(ValueError, match="read-only"):
            logits[0, 0, 0] = 0.0

    def test_golden_trace_is_read_only(self, lenet_setup):
        model, x, y = lenet_setup
        inputs = x.copy()
        trace = GoldenTrace(model, inputs)
        _, activations = trace.chain()
        for array in (trace.logits, *activations):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0.0
        assert inputs.flags.writeable  # the views are frozen, the caller's array is not
        injector = BayesianFaultInjector(
            model, x, y, spec=TargetSpec.single_layer("classifier.3"), trace=trace
        )
        with pytest.raises(ValueError, match="read-only"):
            injector._engine().prefix[...] = 0.0


def per_row_stack(configurations, name, golden):
    """Reference for ``_stacked_parameter``: one sparse XOR per configuration row."""
    k = len(configurations)
    stack = np.repeat(golden[None], k, axis=0)
    bits = stack.reshape(k, -1).view(np.uint32)
    for i, configuration in enumerate(configurations):
        if name in configuration and configuration.touches(name):
            sparse = configuration.sparse(name)
            bits[i, sparse.elements] ^= sparse.lane_masks
    return stack


class TestStackedParameter:
    """The chunk-wide fancy-index XOR equals the per-row XOR bit for bit."""

    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    @pytest.mark.parametrize("arch_injector", ["mlp", "lenet", "resnet"], indirect=True)
    def test_matches_per_row_xor(self, arch_injector, p, rng):
        injector = arch_injector
        fault_model = BernoulliBitFlipModel(p)
        targets = injector.parameter_targets
        configurations = [FaultConfiguration.sample(targets, fault_model, rng) for _ in range(5)]
        configurations.insert(2, FaultConfiguration.empty(targets))
        configurations[0].mask(targets[0][0])  # dense storage takes the same route
        configurations.append(FaultConfiguration({}))  # a row without the target
        engine = injector._engine()
        for name, param in targets:
            golden = param.data.copy()
            stacked = engine._stacked_parameter(ConfigurationBlock.of(configurations), name, param.data)
            assert stacked.shape == (len(configurations),) + param.data.shape
            assert np.array_equal(
                as_bits(stacked), as_bits(per_row_stack(configurations, name, golden))
            )
            assert np.array_equal(as_bits(param.data), as_bits(golden))

    @pytest.mark.parametrize("p", [1e-5, 1e-3, 0.2])
    @pytest.mark.parametrize("arch_injector", ["mlp", "lenet"], indirect=True)
    def test_sampled_block_row_ranges(self, arch_injector, p, rng):
        """A forward chain's chunks and live-row selections of a sampled block."""
        targets = arch_injector.parameter_targets
        block = FaultConfiguration.sample_block(targets, BernoulliBitFlipModel(p), rng, 21)
        engine = arch_injector._engine()
        live = np.flatnonzero(block.flips)
        views = [block[start : start + 8] for start in range(0, 21, 8)]
        views += [block[5:6], block[20:21], block, block.select(live), block.select(live[::2])]
        for view in views:
            if not len(view):
                continue
            for name, param in targets:
                stacked = engine._stacked_parameter(view, name, param.data)
                assert np.array_equal(as_bits(stacked), as_bits(per_row_stack(view.rows, name, param.data)))

    def test_block_of_mixed_storage_rows(self, lenet_injector, rng):
        """``ConfigurationBlock.of``: empty, target-less and dense-stored rows, whole and selected."""
        targets = lenet_injector.parameter_targets
        fault_model = BernoulliBitFlipModel(1e-3)
        rows = [FaultConfiguration.sample(targets, fault_model, rng) for _ in range(6)]
        for row in rows[1::2]:
            for name, _ in targets:
                row.mask(name)  # dense storage, as MCMC proposals leave it
        rows.insert(1, FaultConfiguration.empty(targets))
        rows.insert(4, FaultConfiguration({}))
        rows.append(FaultConfiguration({targets[-1][0]: rows[0].mask(targets[-1][0]).copy()}))
        engine = lenet_injector._engine()
        block = ConfigurationBlock.of(rows)
        selected = np.array([0, 2, 3, 5, 8])
        for name, param in targets:
            for view in (block, block.select(selected), ConfigurationBlock.of(rows).select(selected)):
                stacked = engine._stacked_parameter(view, name, param.data)
                assert np.array_equal(as_bits(stacked), as_bits(per_row_stack(view.rows, name, param.data)))

    def test_untouched_rows_stay_golden(self, lenet_injector):
        targets = lenet_injector.parameter_targets
        name, param = targets[0]
        configurations = [FaultConfiguration.empty(targets) for _ in range(3)]
        block = ConfigurationBlock.of(configurations)
        stacked = lenet_injector._engine()._stacked_parameter(block, name, param.data)
        for row in stacked:
            assert np.array_equal(as_bits(row), as_bits(param.data))


class TestFastCampaignIdentity:
    @pytest.mark.parametrize("p", [1e-7, 1e-3, 0.5])
    def test_forward_campaign_bit_identical(self, lenet_setup, p):
        model, x, y = lenet_setup
        spec = TargetSpec.weights_and_biases()
        slow = BayesianFaultInjector(model, x, y, spec=spec, seed=3, fast=False)
        fast = BayesianFaultInjector(model, x, y, spec=spec, seed=3, fast=True)
        rs = slow.forward_campaign(p, samples=20, chains=2)
        rf = fast.forward_campaign(p, samples=20, chains=2)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
            assert np.array_equal(cs.flips, cf.flips)
        assert rs.hazard.rows == rf.hazard.rows
        assert rs.hazard.hazard_rows == rf.hazard.hazard_rows
        assert rs.mean_error == rf.mean_error

    def test_mcmc_campaign_bit_identical(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        spec = TargetSpec.single_layer("stages.3.1.conv2")
        slow = BayesianFaultInjector(tiny_resnet, x, y, spec=spec, seed=5, fast=False)
        fast = BayesianFaultInjector(tiny_resnet, x, y, spec=spec, seed=5)
        assert fast._engine().cut > 0
        rs = slow.mcmc_campaign(1e-3, chains=2, steps=10)
        rf = fast.mcmc_campaign(1e-3, chains=2, steps=10)
        for cs, cf in zip(rs.chains.chains, rf.chains.chains):
            assert np.array_equal(cs.values, cf.values)
        assert rs.chains.accepted_total() == rf.chains.accepted_total()

    def test_fast_false_disables_machinery(self, lenet_setup):
        model, x, y = lenet_setup
        slow = BayesianFaultInjector(
            model, x, y, spec=TargetSpec.weights_and_biases(), seed=3, fast=False
        )
        assert slow._engine() is None


class Wrapped(Module):
    """Forward override with no forward chain: the chain cannot be built."""

    def __init__(self):
        super().__init__()
        self.inner = MLP(2, (4,), 2, rng=0)

    def forward(self, x):
        return self.inner(x)


class Doubled(MLP):
    """Forward override of a chained class: the chain fails verification."""

    def forward(self, x):
        return super().forward(x) * 2.0


class Gain(Module):
    """A parameterised leaf the segment engine has no handler for."""

    def __init__(self):
        super().__init__()
        self.gain = Parameter(np.full(2, 1.5, dtype=np.float32))

    def forward(self, x):
        return x * self.gain


class TestFastValidation:
    def test_fast_true_rejects_transient_surfaces(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        with pytest.raises(ValueError, match="parameter-only"):
            BayesianFaultInjector(
                trained_mlp, eval_x, eval_y,
                spec=TargetSpec(surfaces=(FaultSurface.ACTIVATIONS,)),
                fast=True,
            )

    def test_fast_true_raises_for_undecomposable_model(self, moons_eval):
        eval_x, eval_y = moons_eval
        assert BayesianFaultInjector(Wrapped().eval(), eval_x, eval_y)._engine() is None
        injector = BayesianFaultInjector(Wrapped().eval(), eval_x, eval_y, fast=True)
        with pytest.raises(ValueError, match="fast=True"):
            injector.forward_campaign(1e-3, samples=4, chains=1)

    def test_unhandled_parameterised_module_past_the_cut_falls_back(self, moons_eval):
        """Only parameter-free leaves may fold the configurations into the batch."""
        eval_x, eval_y = moons_eval
        model = Sequential(Dense(2, 2, rng=0), Gain()).eval()
        injector = BayesianFaultInjector(model, eval_x, eval_y, spec=TargetSpec.single_layer("0"))
        assert injector._engine() is None
        with pytest.raises(TypeError, match="no batched handler for Gain"):
            BatchedNetworkEvaluator(injector)
        result = injector.forward_campaign(1e-3, samples=8, chains=2)
        assert result.chains.steps == 4

    def test_transient_surfaces_fall_back_to_standard_path(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y,
            spec=TargetSpec(surfaces=(FaultSurface.WEIGHTS, FaultSurface.ACTIVATIONS)),
        )
        assert injector._engine() is None
        with pytest.raises(ValueError, match="parameter surfaces"):
            BatchedNetworkEvaluator(injector)
        result = injector.forward_campaign(1e-3, samples=8, chains=2)
        assert result.chains.steps == 4


class TestTraceGuard:
    """Injectors sharing one GoldenTrace: guards and the failing-chain cases."""

    @pytest.fixture()
    def chain_runs(self, monkeypatch):
        runs = []
        verified_chain = GoldenTrace._verified_chain

        def count(trace):
            runs.append(trace)
            return verified_chain(trace)

        monkeypatch.setattr(GoldenTrace, "_verified_chain", count)
        return runs

    def test_trace_for_another_model_object_rejected(self, lenet_setup):
        model, x, y = lenet_setup
        twin = LeNet(in_channels=3, image_size=12, rng=0).eval()
        with pytest.raises(ValueError, match="golden trace"):
            BayesianFaultInjector(model, x, y, trace=GoldenTrace(twin, x))

    @pytest.mark.parametrize("other", [lambda x: x[::-1].copy(), lambda x: x[:3], lambda x: -x])
    def test_trace_for_other_inputs_rejected(self, lenet_setup, other):
        model, x, y = lenet_setup
        with pytest.raises(ValueError, match="golden trace"):
            BayesianFaultInjector(model, x, y, trace=GoldenTrace(model, other(x)))

    def test_matching_trace_is_shared(self, lenet_setup, chain_runs):
        model, x, y = lenet_setup
        trace = GoldenTrace(model, x)
        first = BayesianFaultInjector(
            model, x.copy(), y, spec=TargetSpec.single_layer("features.0"), trace=trace
        )
        second = BayesianFaultInjector(
            model, x.astype(np.float64), y, spec=TargetSpec.single_layer("classifier.3"), trace=trace
        )
        assert first.trace is second.trace is trace
        assert first._engine().steps is second._engine().steps
        assert second._engine().cut > first._engine().cut
        assert np.array_equal(as_bits(first._golden_logits), as_bits(model(first._x).data))
        assert len(chain_runs) == 1

    @pytest.fixture(
        params=[Wrapped, lambda: Doubled(2, (4,), 2, rng=0)], ids=["no-chain", "chain-mismatch"]
    )
    def unverifiable(self, request, moons_eval):
        eval_x, eval_y = moons_eval
        return request.param().eval(), eval_x, eval_y

    def test_fast_none_injectors_fall_back(self, unverifiable, chain_runs):
        model, x, y = unverifiable
        trace = GoldenTrace(model, x)
        for seed in (1, 2):
            shared = BayesianFaultInjector(model, x, y, seed=seed, trace=trace)
            assert shared._engine() is None
            standard = BayesianFaultInjector(model, x, y, seed=seed, fast=False)
            rs = standard.forward_campaign(5e-2, samples=8, chains=2)
            rf = shared.forward_campaign(5e-2, samples=8, chains=2)
            for cs, cf in zip(rs.chains.chains, rf.chains.chains, strict=True):
                assert np.array_equal(as_bits(cs.values), as_bits(cf.values))
        assert len(chain_runs) == 1

    def test_fast_true_injectors_raise(self, unverifiable, chain_runs):
        model, x, y = unverifiable
        trace = GoldenTrace(model, x)
        for seed in (1, 2):
            injector = BayesianFaultInjector(model, x, y, seed=seed, fast=True, trace=trace)
            with pytest.raises(ValueError, match="fast=True but the segment engine is unavailable"):
                injector.forward_campaign(1e-3, samples=4, chains=1)
        assert len(chain_runs) == 1

    def test_fast_false_injectors_never_run_the_chain(self, unverifiable, chain_runs):
        model, x, y = unverifiable
        trace = GoldenTrace(model, x)
        for seed in (1, 2):
            injector = BayesianFaultInjector(model, x, y, seed=seed, fast=False, trace=trace)
            injector.forward_campaign(1e-3, samples=4, chains=1)
            injector.mcmc_campaign(1e-3, chains=1, steps=4)
        assert chain_runs == []


class TestCliFlag:
    @pytest.mark.parametrize(
        "argv,expected",
        [([], None), (["--fast"], True), (["--no-fast"], False)],
    )
    def test_campaign_fast_flag(self, argv, expected):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "golden.npz", "--workbench", "mlp-moons", *argv]
        )
        assert args.fast is expected

    def test_layerwise_and_sweep_expose_flag(self):
        from repro.cli import build_parser

        for command in ("layerwise", "sweep"):
            args = build_parser().parse_args(
                [command, "golden.npz", "--workbench", "mlp-moons", "--no-fast"]
            )
            assert args.fast is False

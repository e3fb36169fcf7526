"""Delta-forward chain evaluation must be bit-identical to the standard path.

The :class:`~repro.core.delta.DeltaChainEvaluator` reuses cached segment
boundary activations between sequentially related proposals; every Chain
record, importance weight, and mixing diagnostic it produces must match
the standard per-proposal forward at the bit level, across architectures,
seeds, and hazard-quarantined regimes. Op-granular FP error event counts
(``fp_overflow`` etc.) are the one allowed difference — fewer ops run.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import BayesianFaultInjector
from repro.core.delta import DeltaChainEvaluator
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec
from repro.mcmc import ParallelTemperingSampler, SingleBitToggle
from repro.mcmc.mixing import CompletenessCriterion
from repro.nn import LeNet, MLP
from repro.nn.module import Module
from repro.obs.profile import Profiler

SEEDS = (11, 23, 2019)
EXPONENT_LANES = tuple(range(23, 31))


@pytest.fixture(autouse=True)
def clean_obs():
    with obs.Session():
        yield


@pytest.fixture(scope="module")
def lenet_setup():
    rng = np.random.default_rng(1234)
    model = LeNet(in_channels=3, image_size=12, rng=0).eval()
    x = rng.normal(size=(6, 3, 12, 12)).astype(np.float32)
    y = rng.integers(0, 10, size=6).astype(np.int64)
    return model, x, y, TargetSpec.weights_and_biases()


@pytest.fixture()
def setup(request, lenet_setup, trained_mlp, moons_eval, tiny_resnet, tiny_images):
    """(model, eval_x, eval_y, target_spec) per architecture id."""
    if request.param == "mlp":
        eval_x, eval_y = moons_eval
        return trained_mlp, eval_x, eval_y, TargetSpec.weights_and_biases()
    if request.param == "lenet":
        return lenet_setup
    x, y = tiny_images
    return tiny_resnet, x, y, TargetSpec.single_layer("stages.3.1.conv2")


def make_pair(setup, seed):
    """(standard, delta) injector pair over identical golden state."""
    model, x, y, spec = setup
    slow = BayesianFaultInjector(model, x, y, spec=spec, seed=seed, fast=False)
    fast = BayesianFaultInjector(model, x, y, spec=spec, seed=seed)
    assert fast._engine() is not None, "segment engine failed to engage"
    return slow, fast


def assert_chains_identical(slow_result, fast_result):
    for cs, cf in zip(slow_result.chains.chains, fast_result.chains.chains):
        assert np.array_equal(cs.values, cf.values)
        assert np.array_equal(cs.flips, cf.flips)
        assert np.array_equal(cs.accepts, cf.accepts)
    assert slow_result.mean_error == fast_result.mean_error
    rs, rf = slow_result.hazard, fast_result.hazard
    assert rs.evaluations == rf.evaluations
    assert rs.hazard_evaluations == rf.hazard_evaluations
    assert rs.rows == rf.rows
    assert rs.hazard_rows == rf.hazard_rows
    report_s = CompletenessCriterion().assess(slow_result.chains)
    report_f = CompletenessCriterion().assess(fast_result.chains)
    assert report_s.r_hat == report_f.r_hat
    assert report_s.ess == report_f.ess


@pytest.mark.parametrize("setup", ["mlp", "lenet", "resnet"], indirect=True)
@pytest.mark.parametrize("seed", SEEDS)
class TestChainBitIdentity:
    def test_mcmc(self, setup, seed):
        slow, fast = make_pair(setup, seed)
        rs = slow.mcmc_campaign(1e-3, chains=2, steps=10)
        rf = fast.mcmc_campaign(1e-3, chains=2, steps=10)
        assert_chains_identical(rs, rf)

    def test_tempered(self, setup, seed):
        slow, fast = make_pair(setup, seed)
        rs, ws = slow.tempered_campaign(1e-3, beta=8.0, chains=2, steps=10)
        rf, wf = fast.tempered_campaign(1e-3, beta=8.0, chains=2, steps=10)
        assert_chains_identical(rs, rf)
        assert ws == wf  # self-normalised importance weights are bit-identical

    def test_tempering(self, setup, seed):
        slow, fast = make_pair(setup, seed)
        betas = (0.0, 10.0, 40.0)
        rs = slow.parallel_tempering_campaign(1e-3, chains=2, sweeps=10, betas=betas)
        rf = fast.parallel_tempering_campaign(1e-3, chains=2, sweeps=10, betas=betas)
        assert_chains_identical(rs, rf)


def test_tempered_on_two_images_resnet_layer_pair(tiny_resnet, tiny_images):
    """A shallow and a deep ResNet layer on a 2-image eval batch.

    With two images the standard path's conv GEMMs are small, so the delta
    recomputes match it only if every engine GEMM has the standard call
    shape; a bigger engine GEMM sums in another order and flips error values.
    """
    x, y = tiny_images
    spec = TargetSpec.weights_and_biases(include_layers=("stages.0.0.conv1", "stages.3.1.conv2"))
    slow, fast = make_pair((tiny_resnet, x[:2], y[:2], spec), seed=10)
    rs, ws = slow.tempered_campaign(1e-2, beta=8.0, chains=2, steps=20)
    rf, wf = fast.tempered_campaign(1e-2, beta=8.0, chains=2, steps=20)
    assert_chains_identical(rs, rf)
    assert ws == wf


class TestHazardQuarantine:
    def test_overflow_regime_identical(self, lenet_setup):
        # Exponent-lane flips at high p overflow activations; the hazard
        # guard quarantines those rows on both paths identically.
        model, x, y, spec = lenet_setup
        fault_model = BernoulliBitFlipModel(0.05, bits=EXPONENT_LANES)
        slow = BayesianFaultInjector(model, x, y, spec=spec, seed=9, fast=False)
        fast = BayesianFaultInjector(model, x, y, spec=spec, seed=9)
        rs = slow.mcmc_campaign(0.05, chains=2, steps=12, fault_model=fault_model)
        rf = fast.mcmc_campaign(0.05, chains=2, steps=12, fault_model=fault_model)
        assert rs.hazard.hazard_rows > 0, "regime failed to trigger hazards"
        assert_chains_identical(rs, rf)


class TestTemperingSamplerParity:
    def test_rung_means_and_swap_acceptance(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=4
        )
        fault_model = BernoulliBitFlipModel(2e-3)
        rng = np.random.default_rng(77)
        statistic = injector.make_statistic(fault_model, rng)
        proposal = SingleBitToggle(injector.parameter_targets)

        def run(engine):
            sampler = ParallelTemperingSampler(
                injector.parameter_targets, fault_model, statistic, proposal,
                betas=(0.0, 10.0, 40.0), engine=engine,
            )
            return sampler.run(chains=2, sweeps=15, rng=5)

        rs = run(None)
        rf = run(DeltaChainEvaluator(injector._engine()))
        assert rs.rung_means == rf.rung_means
        assert rs.swap_acceptance == rf.swap_acceptance
        assert np.array_equal(rs.cold_chains.matrix(), rf.cold_chains.matrix())


class TestDeltaSession:
    @pytest.fixture()
    def engine(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2
        )
        return DeltaChainEvaluator(injector._engine())

    def draw(self, engine, rng, p=1e-3):
        return FaultConfiguration.sample(
            engine.injector.parameter_targets, BernoulliBitFlipModel(p), rng
        )

    def test_cut_is_zero_before_first_commit(self, engine, rng):
        session = engine.session()
        assert session.cut_for(self.draw(engine, rng)) == 0

    def test_commit_without_stage_raises(self, engine):
        with pytest.raises(RuntimeError, match="staged"):
            engine.session().commit()

    def test_identical_candidate_reuses_cached_logits(self, engine, rng):
        session = engine.session()
        configuration = self.draw(engine, rng)
        first = engine.evaluate_round([session], [configuration])
        session.commit()
        assert session.cut_for(configuration) == engine.n_steps
        cached = session.logits()
        again = engine.evaluate_round([session], [configuration])
        assert again == first
        assert session._pending[1][engine.n_steps] is cached  # no recompute

    def test_rejected_candidate_leaves_state_untouched(self, engine, rng):
        session = engine.session()
        state = self.draw(engine, rng)
        engine.evaluate_round([session], [state])
        session.commit()
        other = self.draw(engine, rng, p=0.01)
        engine.evaluate_round([session], [other])  # evaluated but never committed
        assert session.state is state
        assert session.cut_for(state) == engine.n_steps

    def test_misaligned_round_rejected(self, engine, rng):
        with pytest.raises(ValueError, match="misaligned"):
            engine.evaluate_round([engine.session()], [])


class TestDeltaObservability:
    def test_profiler_phases_and_cache_counters(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        profiler = Profiler()
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=6
        )
        with obs.Session(metrics=True, profiler=profiler):
            result, _ = injector.tempered_campaign(1e-3, beta=8.0, chains=2, steps=20)
        counters = result.metrics["counters"]
        assert counters["delta.cache.hit"] > 0
        assert counters["delta.cache.miss"] > 0  # at least the initial states
        assert counters["delta.segments.reused"] > 0
        phases = set(profiler.phases)
        assert any(name.endswith("delta.recompute") for name in phases)
        assert any(name.endswith("delta.reuse") for name in phases)

    def test_standard_path_records_no_delta_counters(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        obs.configure(metrics=True)
        injector = BayesianFaultInjector(
            trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=6, fast=False
        )
        result = injector.mcmc_campaign(1e-3, chains=2, steps=8)
        assert "delta.cache.hit" not in result.metrics["counters"]


class TestFastKnob:
    def test_spec_fast_false_disables_engine(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=1)
        assert injector._engine(False) is None
        assert injector._engine(None) is not None

    def test_spec_fast_true_overrides_injector_fast_false(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=1, fast=False)
        with pytest.raises(ValueError, match="fast=True"):
            injector._engine(True)

    def test_fast_true_rejects_undecomposable_model(self, moons_eval):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.inner = MLP(2, (4,), 2, rng=0)

            def forward(self, x):
                return self.inner(x)

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(Custom().eval(), eval_x, eval_y, seed=1)
        with pytest.raises(ValueError, match="fast=True"):
            injector.mcmc_campaign(1e-3, chains=1, steps=4, fast=True)

    def test_cli_tempered_arm(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["campaign", "golden.npz", "--workbench", "mlp-moons",
             "--method", "tempered", "--beta", "12", "--no-fast"]
        )
        assert args.method == "tempered"
        assert args.beta == 12.0
        assert args.fast is False

        from repro.cli import _campaign_spec_from_args

        spec = _campaign_spec_from_args(args)
        assert spec.kind == "tempered"
        assert spec.beta == 12.0
        assert spec.fast is False


class TestStatisticMemoisation:
    """Satellite: a tempered target over a *different* callable must not
    re-run the forward pass the sampler already paid for."""

    def test_fingerprint_distinguishes_masks(self, trained_mlp, moons_eval, rng):
        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=3)
        model = BernoulliBitFlipModel(0.01)
        a = FaultConfiguration.sample(injector.parameter_targets, model, rng)
        b = FaultConfiguration.sample(injector.parameter_targets, model, rng)
        assert a.fingerprint() == a.fingerprint()
        assert a.fingerprint() != b.fingerprint()
        empty = FaultConfiguration.empty(injector.parameter_targets)
        assert empty.fingerprint() == FaultConfiguration.empty(
            injector.parameter_targets
        ).fingerprint()

    def test_distinct_callable_costs_one_evaluation(self, trained_mlp, moons_eval, rng):
        from repro.mcmc.metropolis import MetropolisHastingsSampler
        from repro.mcmc.targets import TemperedErrorTarget

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=3, fast=False)
        fault_model = BernoulliBitFlipModel(2e-3)
        statistic = injector.make_statistic(fault_model, rng)
        calls = {"n": 0}

        def counted(configuration):
            calls["n"] += 1
            return statistic(configuration)

        target = TemperedErrorTarget(fault_model, counted, beta=8.0)
        sampler = MetropolisHastingsSampler(
            target,
            SingleBitToggle(injector.parameter_targets),
            statistic,  # deliberately NOT the target's callable
            initial=lambda r: FaultConfiguration.sample(
                injector.parameter_targets, fault_model, r
            ),
        )
        steps = 12
        sampler.run(chains=1, steps=steps, rng=np.random.default_rng(0))
        # The sampler primes the target with its own evaluations; the
        # target's callable never runs (memo hits on every density query).
        assert calls["n"] == 0

    def test_same_callable_shortcut_still_engaged(self, trained_mlp, moons_eval, rng):
        from repro.mcmc.metropolis import MetropolisHastingsSampler
        from repro.mcmc.targets import TemperedErrorTarget

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=3, fast=False)
        fault_model = BernoulliBitFlipModel(2e-3)
        calls = {"n": 0}
        statistic = injector.make_statistic(fault_model, rng)

        def counted(configuration):
            calls["n"] += 1
            return statistic(configuration)

        target = TemperedErrorTarget(fault_model, counted, beta=8.0)
        sampler = MetropolisHastingsSampler(
            target,
            SingleBitToggle(injector.parameter_targets),
            counted,  # identical callable: identity shortcut, no memo needed
            initial=lambda r: FaultConfiguration.sample(
                injector.parameter_targets, fault_model, r
            ),
        )
        steps = 12
        sampler.run(chains=1, steps=steps, rng=np.random.default_rng(0))
        assert calls["n"] == steps + 1  # one per proposal plus the initial state

    def test_memo_bounded(self):
        from repro.mcmc.targets import TemperedErrorTarget

        target = TemperedErrorTarget(BernoulliBitFlipModel(0.1), lambda c: 0.0, beta=1.0)
        for index in range(TemperedErrorTarget._MEMO_LIMIT + 64):
            target._store(f"key{index}", float(index))
        assert len(target._memo) == TemperedErrorTarget._MEMO_LIMIT

    def test_memoize_off_calls_through(self):
        from repro.mcmc.targets import TemperedErrorTarget

        calls = {"n": 0}

        def stat(configuration):
            calls["n"] += 1
            return 0.25

        target = TemperedErrorTarget(BernoulliBitFlipModel(0.1), stat, beta=1.0, memoize=False)
        targets = []
        configuration = FaultConfiguration.empty(targets)
        target.prime(configuration, 0.25)  # no-op
        target.log_density(configuration)
        target.log_density(configuration)
        assert calls["n"] == 2

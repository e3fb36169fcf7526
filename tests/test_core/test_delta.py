"""Delta rounds must score exactly what the standard path's statistic rounds score.

The samplers run one loop and differ only in their round scorer: the
:class:`~repro.core.delta.DeltaChainEvaluator`, which reuses cached segment
boundary activations between sequentially related proposals, or
:class:`~repro.mcmc.metropolis.StatisticRounds`, one standard forward per
proposal. Every Chain record, importance weight, and mixing diagnostic a
campaign scored by delta rounds produces must match the statistic rounds'
at the bit level, across architectures, seeds, and hazard-quarantined
regimes. Op-granular FP error event counts
(``fp_overflow`` etc.) are the one allowed difference — fewer ops run.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core import BayesianFaultInjector
from repro.core.delta import DeltaChainEvaluator
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec
from repro.faults.injection import apply_configuration
from repro.mcmc import ParallelTemperingSampler, SingleBitToggle
from repro.mcmc.metropolis import StatisticRounds
from repro.mcmc.mixing import CompletenessCriterion
from repro.nn import LeNet, MLP
from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.tensor import no_grad

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
    """(statistic rounds, delta rounds) injector pair over identical golden state."""
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
        """Delta rounds vs statistic rounds (``engine=None``) in one sampler."""
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

    def test_cli_tempered_arm(self, tmp_path):
        from repro.cli import build_parser, build_workbench_model
        from repro.train.checkpoint import save_checkpoint

        checkpoint = str(tmp_path / "golden.npz")
        save_checkpoint(build_workbench_model("mlp-moons"), checkpoint)
        args = build_parser().parse_args(
            ["campaign", checkpoint, "--workbench", "mlp-moons",
             "--method", "tempered", "--beta", "12", "--no-fast"]
        )
        assert args.method == "tempered"
        assert args.beta == 12.0
        assert args.fast is False

        from repro.cli import _campaign_setup, _campaign_spec_from_args

        spec = _campaign_spec_from_args(args)
        assert spec.kind == "tempered"
        assert spec.beta == 12.0
        # --no-fast reaches the campaign through the injector and the
        # worker recipe; the spec inherits it, so its journal key does not
        # depend on the flag
        assert spec.fast is None
        injector, recipe = _campaign_setup(args)
        assert injector.fast is False
        assert recipe.fast is False
        assert injector._engine(spec.fast) is None


class TestStatisticMemoisation:
    """A tempered chain's density reuses the score of the round that scored
    each state: one forward per proposal, never a second for the density."""

    def test_same_callable_shortcut_still_engaged(self, trained_mlp, moons_eval, rng):
        from repro.mcmc.metropolis import MetropolisHastingsSampler

        eval_x, eval_y = moons_eval
        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=3, fast=False)
        fault_model = BernoulliBitFlipModel(2e-3)
        calls = {"n": 0}
        statistic = injector.make_statistic(fault_model, rng)

        def counted(configuration):
            calls["n"] += 1
            return statistic(configuration)

        sampler = MetropolisHastingsSampler(
            injector.parameter_targets,
            fault_model,
            counted,
            SingleBitToggle(injector.parameter_targets),
            beta=8.0,
        )
        steps = 12
        sampler.run(chains=1, steps=steps, rng=np.random.default_rng(0))
        assert calls["n"] == steps + 1  # one per proposal plus the initial state


class TestSplitRound:
    """A round whose candidates have different cuts runs one ``run_segments``
    per distinct start, each from its own cut, and scores and stages exactly
    what scoring each candidate alone, or the standard path's statistic
    round, gives."""

    SHALLOW, DEEP = "stages.0.0.conv1", "stages.3.1.conv2"

    @pytest.fixture()
    def injectors(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        spec = TargetSpec.weights_and_biases(include_layers=(self.SHALLOW, self.DEEP))
        return make_pair((tiny_resnet, x, y, spec), seed=5)

    @staticmethod
    def flipped(configuration, name, elements):
        """``configuration`` with the top exponent bit of ``elements`` toggled."""
        masks = {target: configuration.sparse(target).to_dense() for target in configuration.names()}
        masks[f"{name}.weight"].reshape(-1)[list(elements)] ^= np.uint32(1 << 30)
        return FaultConfiguration(masks)

    @staticmethod
    def committed(engine, state):
        session = engine.session()
        engine.evaluate_round([session], [state])
        session.commit()
        return session

    def round(self, injector, engine):
        """(sessions, candidates) of a round mixing every kind of cut."""
        rng = np.random.default_rng(8)
        fault_model = BernoulliBitFlipModel(2e-3)
        states = [
            FaultConfiguration.sample(injector.parameter_targets, fault_model, rng)
            for _ in range(4)
        ]
        sessions = [engine.session()] + [self.committed(engine, state) for state in states]
        fresh = FaultConfiguration.sample(injector.parameter_targets, fault_model, rng)
        candidates = [
            fresh,  # no state yet: cut 0
            self.flipped(states[0], self.SHALLOW, (3, 40)),  # cut at the shallow layer
            self.flipped(states[1], self.DEEP, (7,)),  # cut at the deep layer
            states[2],  # unchanged: cut n, cached logits
            self.flipped(states[3], self.DEEP, (100, 2000)),  # a second deep cut
        ]
        return sessions, candidates

    @staticmethod
    def bits(bounds):
        return {index: value.view(np.uint32).tobytes() for index, value in bounds.items()}

    def test_bit_identical_to_alone_and_standard(self, injectors, monkeypatch):
        slow, fast = injectors
        engine = DeltaChainEvaluator(fast._engine())
        segments = engine.segments
        sessions, candidates = self.round(fast, engine)
        base, deep, n = engine.base, engine.owners[f"{self.DEEP}.weight"], engine.n_steps
        assert engine.owners[f"{self.SHALLOW}.weight"] == base < deep < n
        assert [s.cut_for(c) for s, c in zip(sessions, candidates)] == [0, base, deep, n, deep]

        calls = []
        run_segments = segments.run_segments

        def spy(configurations, activation, start, diverged, **kwargs):
            calls.append((start, len(configurations)))
            return run_segments(configurations, activation, start, diverged, **kwargs)

        monkeypatch.setattr(segments, "run_segments", spy)
        monkeypatch.setattr(fast, "_active_metrics", MetricsRegistry())
        values = engine.evaluate_round(sessions, candidates)
        assert calls == [(base, 2), (deep, 2)]
        # Cache counters count against each candidate's own cut.
        counters = {name: fast._active_metrics.counter(f"delta.{name}").value
                    for name in ("cache.hit", "cache.miss", "segments.reused")}
        assert counters == {
            "cache.hit": 3, "cache.miss": 2, "segments.reused": 2 * (deep - base) + (n - base),
        }
        staged = [self.bits(session._pending[1]) for session in sessions]

        # Each candidate alone, in a twin session with the same committed state.
        monkeypatch.setattr(segments, "run_segments", run_segments)
        twins, _ = self.round(fast, engine)
        for index, (twin, candidate) in enumerate(zip(twins, candidates)):
            assert engine.evaluate_round([twin], [candidate]) == [values[index]]
            assert self.bits(twin._pending[1]) == staged[index]

        # The standard path: its statistic rounds (model(x) per candidate)
        # for the values, and each chain step's output under the applied
        # faults for the staged boundaries.
        statistic = slow.make_statistic(BernoulliBitFlipModel(2e-3), np.random.default_rng(0))
        assert StatisticRounds(statistic).evaluate_round(twins, candidates) == values
        for index, candidate in enumerate(candidates):
            with apply_configuration(slow.model, candidate), no_grad(), np.errstate(all="ignore"):
                activation = slow._x
                want = {}
                for step_index, step in enumerate(segments.steps):
                    activation = step.module(activation)
                    want[step_index + 1] = activation.data.view(np.uint32).tobytes()
            got = staged[index]
            assert sorted(got) == list(range(base + 1, n + 1))
            assert all(got[key] == want[key] for key in got)

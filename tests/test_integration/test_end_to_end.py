"""Full-pipeline integration: train → checkpoint → inject → compare."""

import numpy as np

from repro.baselines import RandomFaultInjector, compare_estimators
from repro.core import BayesianFaultInjector
from repro.data import ArrayDataset, DataLoader, gaussian_blobs
from repro.faults import TargetSpec
from repro.nn import MLP
from repro.nn.models import resnet18_cifar_small
from repro.train import Adam, Trainer, load_checkpoint, save_checkpoint


class TestTrainCheckpointInject:
    def test_pipeline(self, tmp_path):
        # 1. Train a golden network.
        x, y = gaussian_blobs(400, scale=0.4, rng=0)
        model = MLP(2, (16,), 3, rng=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
        result = trainer.fit(
            DataLoader(ArrayDataset(x, y), batch_size=32, shuffle=True, rng=1), epochs=20
        )
        assert result.final_train_accuracy > 0.9

        # 2. Checkpoint and reload into a fresh instance.
        path = str(tmp_path / "golden.npz")
        save_checkpoint(model, path, accuracy=result.final_train_accuracy)
        golden = MLP(2, (16,), 3, rng=99)
        metadata = load_checkpoint(golden, path)
        assert metadata["accuracy"] > 0.9

        # 3. Campaign on the reloaded golden network.
        eval_x, eval_y = gaussian_blobs(200, scale=0.4, rng=7)
        injector = BayesianFaultInjector(
            golden, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=0
        )
        low = injector.forward_campaign(1e-5, samples=60)
        high = injector.forward_campaign(5e-2, samples=60)
        assert high.mean_error > low.mean_error


class TestBDLFIMatchesTraditionalFI:
    """E7 in miniature: under a matched single-bit-flip fault model, BDLFI's
    exceedance estimate and the traditional injector's SDC rate agree."""

    def test_agreement(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        spec = TargetSpec.weights_and_biases()
        n = 400

        traditional = RandomFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=1)
        trad_campaign = traditional.run(n)

        injector = BayesianFaultInjector(trained_mlp, eval_x, eval_y, spec=spec, seed=2)
        # Matched fault model: exactly one flip per draw, uniform over the
        # whole space. SingleBitFlipModel picks per-tensor; sampling via the
        # stratified trick (k=1) matches the baseline's element weighting.
        from repro.core import StratifiedErrorEstimator

        estimator = StratifiedErrorEstimator(injector, samples_per_stratum=n)
        values = estimator.conditional_error_samples(1)
        bdlfi_sdc = int((values > injector.golden_error).sum())

        trad_sdc = int(round(trad_campaign.sdc_rate * n))
        comparison = compare_estimators("bdlfi", bdlfi_sdc, n, "random-fi", trad_sdc, n)
        assert comparison.agree, comparison.summary()


class TestResNetInjectionSmoke:
    """The full ResNet-18 topology survives an injection campaign."""

    def test_small_resnet_campaign(self, tiny_images):
        x, y = tiny_images
        model = resnet18_cifar_small(rng=0).eval()
        injector = BayesianFaultInjector(
            model, x, y, spec=TargetSpec(include_layers=("stages.0.0.*", "fc")), seed=0
        )
        campaign = injector.forward_campaign(1e-3, samples=10)
        assert 0.0 <= campaign.mean_error <= 1.0
        assert campaign.total_evaluations == 10


class TestReproducibility:
    def test_identical_seeds_identical_results(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval

        def run():
            injector = BayesianFaultInjector(
                trained_mlp, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=7
            )
            sweep_errors = [
                injector.forward_campaign(p, samples=30).mean_error for p in (1e-3, 1e-2)
            ]
            mcmc = injector.mcmc_campaign(1e-2, chains=2, steps=30)
            return sweep_errors, mcmc.chains.matrix()

        (errors_a, matrix_a) = run()
        (errors_b, matrix_b) = run()
        assert errors_a == errors_b
        assert np.array_equal(matrix_a, matrix_b)

    def test_different_seeds_differ(self, trained_mlp, moons_eval):
        eval_x, eval_y = moons_eval
        a = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=1).forward_campaign(
            1e-2, samples=30
        )
        b = BayesianFaultInjector(trained_mlp, eval_x, eval_y, seed=2).forward_campaign(
            1e-2, samples=30
        )
        assert not np.array_equal(a.chains.matrix(), b.chains.matrix())

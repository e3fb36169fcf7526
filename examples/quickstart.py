"""Quickstart: train a golden network and run your first BDLFI campaign.

Walks the paper's four-step procedure end to end:

1. train the network to obtain the golden weights;
2. choose the bit-flip fault model (Bernoulli per-bit AVF);
3. build the Bayesian fault injector over the golden network;
4. infer the distribution of classification error under faults, with the
   MCMC-mixing completeness check.

Run:  python examples/quickstart.py
"""

from repro.analysis import histogram_plot
from repro.core import BayesianFaultInjector
from repro.data import ArrayDataset, DataLoader, two_moons
from repro.faults import TargetSpec
from repro.nn import paper_mlp
from repro.train import Adam, Trainer


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Golden run: train the paper's Fig. 1 MLP (32 hidden units).
    # ------------------------------------------------------------------ #
    train_x, train_y = two_moons(800, noise=0.12, rng=0)
    model = paper_mlp(in_features=2, num_classes=2, rng=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
    result = trainer.fit(
        DataLoader(ArrayDataset(train_x, train_y), batch_size=32, shuffle=True, rng=1),
        epochs=40,
    )
    print(f"golden network trained: accuracy {result.final_train_accuracy:.1%}")

    # ------------------------------------------------------------------ #
    # 2–3. Fault model + injector. TargetSpec picks the fault surfaces —
    # here every stored weight and bias, the paper's W' = e ⊕ W model.
    # ------------------------------------------------------------------ #
    eval_x, eval_y = two_moons(300, noise=0.12, rng=5)
    injector = BayesianFaultInjector(
        model, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=42
    )
    print(f"golden classification error: {injector.golden_error:.2%}")

    # ------------------------------------------------------------------ #
    # 4. Inference: the distribution of classification error at p = 1e-3.
    # ------------------------------------------------------------------ #
    campaign = injector.forward_campaign(p=1e-3, samples=400, chains=4)
    posterior = campaign.posterior
    lo, hi = posterior.credible_interval()
    print(f"\nfault-injected error at p=1e-3: {posterior.mean:.2%} "
          f"(95% CI [{lo:.2%}, {hi:.2%}]), vs golden {posterior.golden_error:.2%}")
    print(f"P(faults degrade the network)  : {posterior.exceedance_probability():.1%}")

    counts, edges = posterior.histogram(bins=12)
    print("\nerror distribution under faults (cf. paper Fig. 1 (3)):")
    print(histogram_plot(counts, edges))

    # The BDLFI stopping rule: keep injecting until MCMC mixing says the
    # campaign is complete (more injections cannot move the estimate).
    adaptive = injector.run_until_complete(p=1e-3, chains=4, batch_steps=50, max_steps=1000)
    print(f"\nadaptive campaign: {adaptive.completeness}")
    print(f"forward passes spent: {adaptive.total_evaluations}")


if __name__ == "__main__":
    main()

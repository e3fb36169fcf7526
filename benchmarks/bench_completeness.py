"""Experiment E5 — advantage #1: campaign completeness via MCMC mixing.

Two demonstrations:

1. diagnostics trajectory — R̂ and ESS of a multi-chain campaign as the
   sample count grows, showing convergence to the mixed regime;
2. adaptive stopping — the completeness criterion halts the campaign with
   a budget far below a conservative fixed-N campaign while matching its
   estimate.
"""

from repro.analysis import format_table
from repro.core import BayesianFaultInjector
from repro.faults import TargetSpec
from repro.mcmc import CompletenessCriterion, effective_sample_size, split_r_hat

FLIP_P = 5e-3
FIXED_BUDGET_STEPS = 500
CHAINS = 4


def test_completeness_diagnostics_trajectory(benchmark, golden_mlp_moons, moons_eval_batch, results_writer):
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2019
    )

    campaign = benchmark.pedantic(
        lambda: injector.mcmc_campaign(FLIP_P, chains=CHAINS, steps=FIXED_BUDGET_STEPS),
        rounds=1,
        iterations=1,
    )

    matrix = campaign.chains.matrix()
    rows = []
    for steps in (50, 100, 200, 350, FIXED_BUDGET_STEPS):
        prefix = matrix[:, :steps]
        rows.append(
            {
                "steps_per_chain": steps,
                "r_hat": split_r_hat(prefix),
                "ess": effective_sample_size(prefix),
                "estimate_pct": 100 * prefix.mean(),
            }
        )

    print("\n=== E5a: mixing diagnostics vs campaign size (MCMC, 4 chains) ===")
    print(format_table(rows))
    print(f"final completeness: {campaign.completeness}")

    results_writer.write("E5a_mixing_trajectory", {"rows": rows, "p": FLIP_P})

    assert rows[-1]["r_hat"] < 1.1  # chains agree by the end
    assert rows[-1]["ess"] > rows[0]["ess"]


def test_completeness_adaptive_stopping(benchmark, golden_mlp_moons, moons_eval_batch, results_writer):
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=77
    )
    criterion = CompletenessCriterion(stderr_tolerance=0.01, min_ess=100)

    adaptive = benchmark.pedantic(
        lambda: injector.run_until_complete(
            FLIP_P, criterion=criterion, chains=CHAINS, batch_steps=50, max_steps=1000
        ),
        rounds=1,
        iterations=1,
    )
    reference = injector.forward_campaign(FLIP_P, samples=CHAINS * FIXED_BUDGET_STEPS, chains=CHAINS)

    rows = [
        {
            "campaign": "adaptive (stop when mixed)",
            "evaluations": adaptive.total_evaluations,
            "estimate_pct": 100 * adaptive.mean_error,
            "complete": str(adaptive.completeness.complete),
        },
        {
            "campaign": f"fixed N={CHAINS * FIXED_BUDGET_STEPS}",
            "evaluations": reference.total_evaluations,
            "estimate_pct": 100 * reference.mean_error,
            "complete": "n/a",
        },
    ]
    print("\n=== E5b: adaptive stopping vs fixed budget ===")
    print(format_table(rows))
    print(f"adaptive report: {adaptive.completeness}")

    results_writer.write(
        "E5b_adaptive_stopping",
        {
            "adaptive_evaluations": adaptive.total_evaluations,
            "fixed_evaluations": reference.total_evaluations,
            "adaptive_estimate": adaptive.mean_error,
            "fixed_estimate": reference.mean_error,
        },
    )

    assert adaptive.completeness.complete
    assert adaptive.total_evaluations < reference.total_evaluations
    assert abs(adaptive.mean_error - reference.mean_error) < 0.05

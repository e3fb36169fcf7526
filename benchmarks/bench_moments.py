"""Ablation A7 — analytic moment propagation vs Monte Carlo campaigns.

The strongest form of the paper's "algorithmic acceleration": one
closed-form forward pass over (mean, variance) replaces a sampling
campaign. Two validations:

1. benign-lane regime (mantissa + sign; every flip delta finite and in
   scale) — the analytic prediction must *match* Monte Carlo;
2. full-lane regime — the analytic [lower, upper] bounds must *bracket*
   Monte Carlo, with the exact severe-flip probability splitting the mass.
"""

from repro.analysis import format_table
from repro.core import BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, TargetSpec
from repro.moments import MomentPropagator
from repro.utils.timing import Timer

BENIGN_LANES = tuple(range(0, 23)) + (31,)
P_VALUES = (1e-4, 1e-3, 1e-2)
MC_SAMPLES = 300


def test_moment_propagation_vs_monte_carlo(benchmark, golden_mlp_moons, moons_eval_batch, results_writer):
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2019
    )

    def run_analytic():
        rows = []
        for p in P_VALUES:
            benign = MomentPropagator(golden_mlp_moons, p, bits=BENIGN_LANES).predict_error(eval_x, eval_y)
            full = MomentPropagator(golden_mlp_moons, p).predict_error(eval_x, eval_y)
            rows.append((p, benign, full))
        return rows

    analytic = benchmark.pedantic(run_analytic, rounds=1, iterations=1)

    table = []
    all_bracketed = True
    for p, benign, full in analytic:
        with Timer() as mc_timer:
            mc_benign = injector.forward_campaign(
                p, samples=MC_SAMPLES, fault_model=BernoulliBitFlipModel(p, bits=BENIGN_LANES),
                stream=f"benign:{p}",
            )
            mc_full = injector.forward_campaign(p, samples=MC_SAMPLES, stream=f"full:{p}")
        mc_seconds = mc_timer.elapsed
        bracketed = full.brackets(mc_full.mean_error)
        all_bracketed &= bracketed
        table.append(
            {
                "p": p,
                "benign_analytic_pct": 100 * benign.combined_error,
                "benign_mc_pct": 100 * mc_benign.mean_error,
                "full_bounds_pct": f"[{100 * full.error_lower:.2f}, {100 * full.error_upper:.2f}]",
                "full_mc_pct": 100 * mc_full.mean_error,
                "bracketed": str(bracketed),
                "mc_seconds": round(mc_seconds, 2),
            }
        )

    print("\n=== A7: analytic moment propagation vs Monte Carlo ===")
    print(format_table(table))
    print("(analytic cost: microseconds per point; campaigns re-run per point)")

    results_writer.write("A7_moments", {"rows": table})

    for row in table:
        assert abs(row["benign_analytic_pct"] - row["benign_mc_pct"]) < 2.0
    assert all_bracketed

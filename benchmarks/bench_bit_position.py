"""Ablation A1 — bit-position sensitivity.

Exhaustively flips every (element, bit) site of the MLP and aggregates SDC
and DUE rates per IEEE-754 bit lane: the mechanistic explanation for the
paper's two-regime curves (23 of 32 lanes are near-harmless mantissa bits;
high exponent bits are catastrophic).
"""

from repro.analysis import format_table
from repro.baselines import ExhaustiveBitInjector
from repro.bits import bit_field
from repro.core import BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, TargetSpec


def test_bit_position_sensitivity(benchmark, golden_mlp_moons, moons_eval_batch, results_writer):
    eval_x, eval_y = moons_eval_batch
    injector = ExhaustiveBitInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=2019
    )

    sensitivity = benchmark.pedantic(lambda: injector.run(), rounds=1, iterations=1)

    lane_rows = [
        {
            "bit": bit,
            "field": bit_field(bit),
            "sdc_rate": sensitivity.sdc_by_bit[bit],
            "due_rate": sensitivity.due_by_bit[bit],
        }
        for bit in sorted(sensitivity.sdc_by_bit)
    ]
    field_rows = sensitivity.field_table()

    print("\n=== A1: per-bit-lane SDC/DUE rates (exhaustive sweep) ===")
    print(format_table(field_rows))
    print()
    print(format_table(lane_rows[-12:]))  # the interesting high lanes

    results_writer.write("A1_bit_position", {"lanes": lane_rows, "fields": field_rows})

    fields = {row["field"]: row for row in field_rows}
    assert fields["exponent"]["sdc_rate"] + fields["exponent"]["due_rate"] > 5 * max(
        fields["mantissa"]["sdc_rate"], 1e-4
    )


def test_lane_restricted_campaigns_match_exhaustive_ordering(
    benchmark, golden_mlp_moons, moons_eval_batch, results_writer
):
    """Bernoulli campaigns restricted to each field reproduce the exhaustive
    ordering: exponent-only >> mantissa-only damage at equal p."""
    eval_x, eval_y = moons_eval_batch
    injector = BayesianFaultInjector(
        golden_mlp_moons, eval_x, eval_y, spec=TargetSpec.weights_and_biases(), seed=11
    )
    p = 1e-3
    lanes = {
        "mantissa": tuple(range(0, 23)),
        "exponent": tuple(range(23, 31)),
        "sign": (31,),
        "all": None,
    }

    def run_all():
        return {
            name: injector.forward_campaign(
                p, samples=120, fault_model=BernoulliBitFlipModel(p, bits=bits), stream=f"lane:{name}"
            ).mean_error
            for name, bits in lanes.items()
        }

    errors = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [{"lanes": k, "mean_error_pct": 100 * v} for k, v in errors.items()]
    print("\n=== A1b: Bernoulli campaigns restricted to bit fields (p=1e-3) ===")
    print(format_table(rows))

    results_writer.write("A1b_lane_campaigns", {"rows": rows, "p": p})

    assert errors["exponent"] > errors["mantissa"]
    assert errors["all"] >= errors["mantissa"]

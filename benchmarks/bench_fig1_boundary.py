"""Experiment E1 — Fig. 1 ③: log error-probability map near the decision boundary.

Regenerates the paper's decision-boundary panel: a 2-D MLP's feature space
is scanned on a grid; for each cell we estimate the probability that a
Bernoulli-AVF fault draw changes the prediction, render the log-probability
field, and verify finding F1 (errors concentrate at the boundary).
"""

from repro.analysis import format_table, heatmap
from repro.core import DecisionBoundaryAnalysis
from repro.faults import BernoulliBitFlipModel

BOUNDS = (-1.5, 2.5, -1.2, 1.7)
RESOLUTION = 40
SAMPLES = 120
FLIP_P = 1e-3


def test_fig1_boundary_map(benchmark, golden_mlp_moons, results_writer):
    analysis = DecisionBoundaryAnalysis(
        golden_mlp_moons,
        bounds=BOUNDS,
        resolution=RESOLUTION,
        fault_model=BernoulliBitFlipModel(FLIP_P),
        seed=2019,
    )

    bmap = benchmark.pedantic(lambda: analysis.run(samples=SAMPLES), rounds=1, iterations=1)

    correlation = bmap.distance_correlation()
    bands = bmap.band_summary(5)

    print("\n=== Fig. 1 (3): log10 P(misclassification flip) over feature space ===")
    print(heatmap(bmap.log_flip_probability(), legend="log10 flip probability"))
    print("\nFlip probability by distance-to-boundary band (near -> far):")
    print(format_table(bands))
    print(f"\nSpearman(distance, flip probability): rho={correlation['spearman_rho']:.3f} "
          f"(p={correlation['spearman_p']:.2e})")

    results_writer.write(
        "E1_fig1_boundary",
        {
            "flip_probability": bmap.flip_probability,
            "boundary_distance": bmap.boundary_distance,
            "golden_prediction": bmap.golden_prediction,
            "bands": bands,
            "correlation": correlation,
            "samples": SAMPLES,
            "p": FLIP_P,
        },
    )

    # Finding F1: fault-induced errors concentrate at the decision boundary.
    assert correlation["spearman_rho"] < -0.1
    assert correlation["spearman_p"] < 1e-3
    flips = [band["mean_flip_probability"] for band in bands]
    assert flips[0] == max(flips)

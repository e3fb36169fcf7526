"""Decision-boundary error mapping — the harness behind Fig. 1 ③.

The paper's finding F1: "The most likely classification errors are produced
as a result of faults that happen at the decision boundary", motivating
protection thresholds on the hard-to-classify regions of feature space.

:class:`DecisionBoundaryAnalysis` evaluates a 2-D classifier over a dense
grid, samples fault configurations from the AVF model, and records for
every grid point the probability that a fault draw changes its prediction
away from the *golden* prediction. The output :class:`BoundaryMap` carries
the log-error-probability field of Fig. 1 ③ plus each point's distance to
the golden decision boundary, so F1 reduces to a rank correlation
(flip probability falls with boundary distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.bernoulli import BernoulliBitFlipModel
from repro.faults.configuration import FaultConfiguration
from repro.faults.model import FaultModel
from repro.faults.targets import TargetSpec, resolve_parameter_targets
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import RngFactory

__all__ = ["BoundaryMap", "DecisionBoundaryAnalysis"]


@dataclass(frozen=True)
class BoundaryMap:
    """Fault-sensitivity field over a 2-D input grid."""

    xs: np.ndarray
    ys: np.ndarray
    #: golden predicted class per grid point, shape (ny, nx)
    golden_prediction: np.ndarray
    #: P(prediction changes under a fault draw), shape (ny, nx)
    flip_probability: np.ndarray
    #: unsigned distance (grid units) to the nearest golden boundary cell
    boundary_distance: np.ndarray
    samples: int

    def log_flip_probability(self, floor: float | None = None) -> np.ndarray:
        """log₁₀ P(flip), floored so never-flipped cells stay plottable.

        The default floor is half the resolution of the campaign
        (1 / (2·samples)) — the standard continuity correction.
        """
        floor = floor if floor is not None else 1.0 / (2.0 * self.samples)
        return np.log10(np.maximum(self.flip_probability, floor))

    def distance_correlation(self) -> dict[str, float]:
        """Spearman correlation between boundary distance and flip probability.

        F1 predicts strongly negative ρ: far from the boundary, faults
        rarely change the decision.
        """
        from scipy import stats as sps

        distance = self.boundary_distance.reshape(-1)
        flips = self.flip_probability.reshape(-1)
        result = sps.spearmanr(distance, flips)
        return {"spearman_rho": float(result.statistic), "spearman_p": float(result.pvalue)}

    def band_summary(self, n_bands: int = 5) -> list[dict[str, float]]:
        """Mean flip probability by distance band (near → far).

        The monotone decay across bands is the table-form of Fig. 1 ③.
        """
        if n_bands < 2:
            raise ValueError(f"need at least 2 bands, got {n_bands}")
        distance = self.boundary_distance.reshape(-1)
        flips = self.flip_probability.reshape(-1)
        edges = np.quantile(distance, np.linspace(0, 1, n_bands + 1))
        edges[-1] += 1e-9
        rows = []
        for i in range(n_bands):
            mask = (distance >= edges[i]) & (distance < edges[i + 1])
            rows.append(
                {
                    "band": i,
                    "distance_lo": float(edges[i]),
                    "distance_hi": float(edges[i + 1]),
                    "mean_flip_probability": float(flips[mask].mean()) if mask.any() else float("nan"),
                    "cells": int(mask.sum()),
                }
            )
        return rows


class DecisionBoundaryAnalysis:
    """Grid-based fault-sensitivity study of a 2-D classifier.

    Parameters
    ----------
    model:
        Trained classifier over 2-D inputs.
    bounds:
        ``(x_lo, x_hi, y_lo, y_hi)`` of the evaluation window.
    resolution:
        Grid cells per axis.
    fault_model:
        Defaults to the paper's Bernoulli model at p=1e-3 over all weights.
    """

    def __init__(
        self,
        model: Module,
        bounds: tuple[float, float, float, float],
        resolution: int = 60,
        fault_model: FaultModel | None = None,
        spec: TargetSpec | None = None,
        seed: int = 0,
    ) -> None:
        x_lo, x_hi, y_lo, y_hi = bounds
        if x_lo >= x_hi or y_lo >= y_hi:
            raise ValueError(f"degenerate bounds {bounds}")
        if resolution < 4:
            raise ValueError(f"resolution must be >= 4, got {resolution}")
        self.model = model.eval()
        self.xs = np.linspace(x_lo, x_hi, resolution).astype(np.float32)
        self.ys = np.linspace(y_lo, y_hi, resolution).astype(np.float32)
        self.fault_model = fault_model or BernoulliBitFlipModel(1e-3)
        self.spec = spec or TargetSpec()
        self.targets = resolve_parameter_targets(model, self.spec)
        if not self.targets:
            raise ValueError("target spec selects no parameters in this model")
        self._rng_factory = RngFactory(seed)
        grid_x, grid_y = np.meshgrid(self.xs, self.ys)
        self._grid = np.stack([grid_x.reshape(-1), grid_y.reshape(-1)], axis=1)
        self._shape = grid_x.shape

    def _grid_predictions(self) -> np.ndarray:
        with no_grad(), np.errstate(all="ignore"):
            logits = self.model(Tensor(self._grid))
        return logits.data.argmax(axis=1)

    def run(self, samples: int = 100) -> BoundaryMap:
        """Sample ``samples`` fault draws; count per-cell prediction changes."""
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        golden = self._grid_predictions().reshape(self._shape)

        rng = self._rng_factory.stream("boundary")
        change_counts = np.zeros(self._shape, dtype=np.int64)
        from repro.faults.injection import apply_configuration

        for _ in range(samples):
            configuration = FaultConfiguration.sample(self.targets, self.fault_model, rng)
            with apply_configuration(self.model, configuration):
                faulted = self._grid_predictions().reshape(self._shape)
            change_counts += faulted != golden

        flip_probability = change_counts / samples
        distance = _distance_to_boundary(golden)
        return BoundaryMap(
            xs=self.xs,
            ys=self.ys,
            golden_prediction=golden,
            flip_probability=flip_probability,
            boundary_distance=distance,
            samples=samples,
        )


def _distance_to_boundary(labels: np.ndarray) -> np.ndarray:
    """Distance (in grid cells) from each cell to the nearest class change.

    A cell is a boundary cell if any 4-neighbour has a different golden
    label; distances are the Euclidean distance transform from that set.
    """
    from scipy import ndimage

    boundary = np.zeros(labels.shape, dtype=bool)
    boundary[:-1, :] |= labels[:-1, :] != labels[1:, :]
    boundary[1:, :] |= labels[1:, :] != labels[:-1, :]
    boundary[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    boundary[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    if not boundary.any():
        # Degenerate: single-class window; distances are all "far".
        return np.full(labels.shape, float(max(labels.shape)), dtype=np.float64)
    return ndimage.distance_transform_edt(~boundary)

"""2-D synthetic classification distributions.

These drive the decision-boundary experiment (paper Fig. 1 ③): the MLP in
Fig. 1 takes a low-dimensional input and the figure plots log error
probability over the input plane. Two-moons is the canonical choice for a
curved boundary; Gaussian blobs give a three-class problem with near-linear
boundaries.

All generators return ``(features, labels)`` with features float32 of shape
``(n, 2)`` and integer labels.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["two_moons", "gaussian_blobs"]


def two_moons(
    n: int,
    noise: float = 0.1,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving half-circles; binary labels."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    gen = as_generator(rng)
    n0 = n // 2
    n1 = n - n0
    theta0 = gen.uniform(0.0, np.pi, n0)
    theta1 = gen.uniform(0.0, np.pi, n1)
    upper = np.stack([np.cos(theta0), np.sin(theta0)], axis=1)
    lower = np.stack([1.0 - np.cos(theta1), 0.5 - np.sin(theta1)], axis=1)
    features = np.concatenate([upper, lower], axis=0)
    features += gen.normal(0.0, noise, size=features.shape)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = gen.permutation(n)
    return features[order].astype(np.float32), labels[order]


def gaussian_blobs(
    n: int,
    centers: np.ndarray | None = None,
    scale: float = 0.5,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian clusters, one per class.

    Default centers place 3 classes at the vertices of a triangle.
    """
    gen = as_generator(rng)
    if centers is None:
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]])
    centers = np.asarray(centers, dtype=np.float64)
    k = len(centers)
    labels = gen.integers(0, k, size=n)
    features = centers[labels] + gen.normal(0.0, scale, size=(n, 2))
    return features.astype(np.float32), labels.astype(np.int64)

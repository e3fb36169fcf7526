"""Datasets and loaders.

The paper trains on CIFAR-10 and visualises a 2-D MLP's decision boundary.
With no network access, this package provides:

* :mod:`~repro.data.synthetic` — 2-D toy distributions (two-moons, blobs)
  for the decision-boundary study (Fig. 1 ③);
* :mod:`~repro.data.images` — a procedural, class-conditional image dataset
  standing in for CIFAR-10 (10 classes, 3×32×32 float32) with a difficulty
  knob so golden-run error can be matched to the paper's regimes;
* :class:`~repro.data.datasets.ArrayDataset` and
  :class:`~repro.data.loader.DataLoader` for batched iteration.
"""

from repro.data.datasets import Dataset, ArrayDataset
from repro.data.loader import DataLoader
from repro.data.synthetic import two_moons, gaussian_blobs
from repro.data.images import SyntheticImageConfig, make_synthetic_images
from repro.data.digits import make_digit_dataset, render_digit
from repro.data.splits import train_test_split

__all__ = [
    "Dataset",
    "ArrayDataset",
    "DataLoader",
    "two_moons",
    "gaussian_blobs",
    "SyntheticImageConfig",
    "make_synthetic_images",
    "make_digit_dataset",
    "render_digit",
    "train_test_split",
]

"""Golden networks for the benchmark harness.

Training a golden network is step 1 of the BDLFI procedure and a fixed
cost, so trained weights are cached under ``benchmarks/_artifacts`` (the
first benchmark run trains, later runs load checkpoints; delete the
directory to retrain). Every network and eval batch is built from fixed
seeds, so timing differences between runs come from the machine, never
from the workload.

Experiment configurations (eval-batch sizes, dataset difficulty) are chosen
so the full benchmark suite regenerates every paper figure on one CPU in
minutes; see DESIGN.md §2 for why these substitutions preserve the paper's
findings.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, SyntheticImageConfig, make_synthetic_images, two_moons
from repro.nn import MLP, paper_mlp
from repro.nn.models import resnet18_cifar_small
from repro.train import Adam, Trainer, load_checkpoint, save_checkpoint

ARTIFACTS = os.path.join(os.path.dirname(__file__), "_artifacts")

#: MLP image task — low-dimensional (6×6) so the Fig. 2 MLP is small enough
#: that the flat fault regime is visible inside the swept p range.
_MLP_IMAGE_CONFIG = SyntheticImageConfig(image_size=6, noise=1.2, seed=11)
#: ResNet image task — harder distribution so the golden error sits at the
#: elevated baseline of Fig. 4.
_RESNET_IMAGE_CONFIG = SyntheticImageConfig(image_size=12, noise=4.5, seed=11)


def _train_or_load(name: str, build, train_fn):
    """Train once and cache as ``ARTIFACTS/<name>.npz``; returns the model."""
    os.makedirs(ARTIFACTS, exist_ok=True)
    path = os.path.join(ARTIFACTS, f"{name}.npz")
    model = build()
    if os.path.exists(path):
        try:
            load_checkpoint(model, path)
            return model.eval()
        except Exception:
            # A truncated or otherwise unreadable checkpoint is a cache
            # miss, not a fatal error — retrain and overwrite it.
            os.remove(path)
    save_checkpoint(model, path, accuracy=train_fn(model))
    return model.eval()


def _image_trainer(data, epochs: int, shuffle_rng: int):
    """Adam fit on ``data = (train_set, test_set)``; returns final val accuracy."""
    train_set, test_set = data

    def train(model):
        loader = DataLoader(train_set, batch_size=64, shuffle=True, rng=shuffle_rng)
        val = DataLoader(test_set, batch_size=200)
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3))
        return trainer.fit(loader, epochs=epochs, val_loader=val).final_val_accuracy

    return train


@pytest.fixture(scope="session")
def golden_mlp_moons():
    """Paper Fig. 1 MLP (32 hidden units) trained on two-moons."""

    def train(model):
        x, y = two_moons(800, noise=0.12, rng=0)
        loader = DataLoader(ArrayDataset(x, y), batch_size=32, shuffle=True, rng=1)
        result = Trainer(model, Adam(model.parameters(), lr=0.01)).fit(loader, epochs=50)
        return result.final_train_accuracy

    return _train_or_load("mlp_moons", lambda: paper_mlp(rng=0), train)


@pytest.fixture(scope="session")
def moons_eval_batch():
    return two_moons(300, noise=0.12, rng=5)


@pytest.fixture(scope="session")
def image_data_mlp():
    return make_synthetic_images(_MLP_IMAGE_CONFIG, 1500, 400)


@pytest.fixture(scope="session")
def image_data_resnet():
    return make_synthetic_images(_RESNET_IMAGE_CONFIG, 2000, 400)


@pytest.fixture(scope="session")
def golden_mlp_images(image_data_mlp):
    """MLP classifier on the synthetic CIFAR-10 stand-in (Fig. 2 subject)."""
    dim = int(np.prod(image_data_mlp[0].features.shape[1:]))
    train = _image_trainer(image_data_mlp, epochs=20, shuffle_rng=2)
    return _train_or_load("mlp_images", lambda: MLP(dim, (8,), 10, rng=0), train)


@pytest.fixture(scope="session")
def golden_resnet_images(image_data_resnet):
    """ResNet-18 (reduced width, identical topology) on the synthetic
    CIFAR-10 stand-in (Figs. 3 and 4 subject)."""
    train = _image_trainer(image_data_resnet, epochs=8, shuffle_rng=3)
    return _train_or_load("resnet_images", lambda: resnet18_cifar_small(rng=0), train)


@pytest.fixture(scope="session")
def mlp_image_eval(image_data_mlp):
    """Evaluation batch for MLP image campaigns."""
    _, test_set = image_data_mlp
    return test_set.features[:200], test_set.labels[:200]


@pytest.fixture(scope="session")
def resnet_image_eval(image_data_resnet):
    """Evaluation batch for ResNet campaigns (small: each campaign runs
    hundreds of forward passes)."""
    _, test_set = image_data_resnet
    return test_set.features[:64], test_set.labels[:64]


@pytest.fixture(scope="session")
def results_writer():
    from repro.analysis import ResultWriter

    return ResultWriter(os.path.join(os.path.dirname(__file__), "..", "results"))

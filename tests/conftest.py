"""Shared fixtures: golden networks and evaluation batches.

Expensive artifacts (trained networks) are session-scoped; tests treat
them as read-only. Everything is seeded, so the whole suite is
deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, two_moons
from repro.nn import paper_mlp
from repro.nn.models import resnet18_cifar_small
from repro.train import Adam, Trainer


@pytest.fixture(scope="session")
def moons_data():
    """(train_x, train_y, eval_x, eval_y) for the two-moons problem."""
    train_x, train_y = two_moons(500, noise=0.12, rng=0)
    eval_x, eval_y = two_moons(250, noise=0.12, rng=1)
    return train_x, train_y, eval_x, eval_y


@pytest.fixture(scope="session")
def trained_mlp(moons_data):
    """The paper's Fig. 1 MLP trained to high accuracy on two-moons."""
    train_x, train_y, _, _ = moons_data
    model = paper_mlp(rng=0)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.01))
    loader = DataLoader(ArrayDataset(train_x, train_y), batch_size=32, shuffle=True, rng=1)
    result = trainer.fit(loader, epochs=40)
    assert result.final_train_accuracy > 0.95, "fixture MLP failed to train"
    model.eval()
    return model


@pytest.fixture(scope="session")
def moons_eval(moons_data):
    """Evaluation batch for campaign statistics."""
    _, _, eval_x, eval_y = moons_data
    return eval_x, eval_y


@pytest.fixture(scope="session")
def tiny_resnet():
    """Untrained small ResNet-18 (structure tests and layerwise plumbing).

    Untrained weights are fine for structural/injection tests; training a
    ResNet is reserved for the benchmark harnesses.
    """
    return resnet18_cifar_small(num_classes=10, rng=0).eval()


@pytest.fixture(scope="session")
def tiny_images():
    """A small batch of CIFAR-shaped images and labels."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 10, size=8).astype(np.int64)
    return x, y


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)

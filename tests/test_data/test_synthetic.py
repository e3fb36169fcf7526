"""2-D synthetic distributions and the procedural image dataset."""

import numpy as np
import pytest

from repro.data import SyntheticImageConfig, gaussian_blobs, make_synthetic_images, two_moons
from repro.data.images import class_basis


class TestTwoMoons:
    def test_shapes_and_labels(self):
        x, y = two_moons(101, rng=0)
        assert x.shape == (101, 2)
        assert x.dtype == np.float32
        assert set(np.unique(y)) == {0, 1}

    def test_roughly_balanced(self):
        _, y = two_moons(1000, rng=1)
        assert 0.45 < y.mean() < 0.55

    def test_deterministic(self):
        a, _ = two_moons(50, rng=3)
        b, _ = two_moons(50, rng=3)
        assert np.array_equal(a, b)

    def test_moons_are_separated_at_low_noise(self):
        x, y = two_moons(2000, noise=0.02, rng=2)
        # Upper moon (class 0) lives at higher y on the left side.
        assert x[y == 0][:, 1].mean() > x[y == 1][:, 1].mean()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            two_moons(1)


class TestOtherDistributions:
    def test_blobs_default_three_classes(self):
        x, y = gaussian_blobs(300, rng=0)
        assert set(np.unique(y)) == {0, 1, 2}

    def test_blobs_custom_centers(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        x, y = gaussian_blobs(500, centers=centers, scale=0.1, rng=1)
        assert np.allclose(x[y == 1].mean(axis=0), [10, 10], atol=0.2)

class TestSyntheticImages:
    def test_shapes_and_dtypes(self):
        cfg = SyntheticImageConfig(image_size=8, seed=0)
        train, test = make_synthetic_images(cfg, 40, 20)
        assert train.features.shape == (40, 3, 8, 8)
        assert train.features.dtype == np.float32
        assert len(test) == 20

    def test_channelwise_standardisation(self):
        cfg = SyntheticImageConfig(image_size=8, seed=0)
        train, _ = make_synthetic_images(cfg, 200, 10)
        assert np.allclose(train.features.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        assert np.allclose(train.features.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_deterministic_in_seed(self):
        cfg = SyntheticImageConfig(image_size=8, seed=5)
        a, _ = make_synthetic_images(cfg, 10, 5)
        b, _ = make_synthetic_images(cfg, 10, 5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_train_test_differ(self):
        cfg = SyntheticImageConfig(image_size=8, seed=5)
        train, test = make_synthetic_images(cfg, 10, 10)
        assert not np.array_equal(train.features, test.features)

    def test_basis_shared_across_splits(self):
        cfg = SyntheticImageConfig(image_size=8, seed=2)
        basis_a = class_basis(cfg)
        basis_b = class_basis(cfg)
        assert np.array_equal(basis_a, basis_b)
        assert basis_a.shape == (10, cfg.basis_rank, 3, 8, 8)

    def test_noise_knob_controls_difficulty(self):
        # Classes should be more linearly separable at low noise.
        def class_gap(noise):
            cfg = SyntheticImageConfig(image_size=8, noise=noise, seed=3)
            train, _ = make_synthetic_images(cfg, 400, 10)
            means = np.stack([
                train.features[train.labels == c].mean(axis=0).reshape(-1)
                for c in range(10) if (train.labels == c).any()
            ])
            spread = np.linalg.norm(means - means.mean(axis=0), axis=1).mean()
            return spread

        assert class_gap(0.2) > class_gap(5.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageConfig(image_size=2)
        with pytest.raises(ValueError):
            SyntheticImageConfig(noise=-1.0)
        with pytest.raises(ValueError):
            make_synthetic_images(SyntheticImageConfig(), 0, 10)

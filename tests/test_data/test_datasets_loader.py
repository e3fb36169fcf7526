"""ArrayDataset and DataLoader."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader


def _dataset(n=10, dim=3):
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(n, dim)), rng.integers(0, 4, n))


class TestArrayDataset:
    def test_len_getitem(self):
        ds = _dataset(5)
        assert len(ds) == 5
        x, y = ds[2]
        assert x.shape == (3,)
        assert isinstance(y, int)

    def test_dtype_normalisation(self):
        ds = ArrayDataset(np.zeros((2, 2), dtype=np.float64), np.zeros(2, dtype=np.int32))
        assert ds.features.dtype == np.float32
        assert ds.labels.dtype == np.int64

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_labels_must_be_1d(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros((3, 1)))

    def test_subset(self):
        ds = _dataset(10)
        sub = ds.subset(np.array([0, 5, 9]))
        assert len(sub) == 3
        assert np.array_equal(sub.features[1], ds.features[5])

    def test_num_classes(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 2, 1, 2]))
        assert ds.num_classes == 3


class TestDataLoader:
    def test_batches_cover_everything(self):
        ds = _dataset(10)
        loader = DataLoader(ds, batch_size=3)
        seen = sum(len(y) for _, y in loader)
        assert seen == 10
        assert len(loader) == 4

    def test_drop_last(self):
        loader = DataLoader(_dataset(10), batch_size=3, drop_last=True)
        assert len(loader) == 3
        assert sum(len(y) for _, y in loader) == 9

    def test_shuffle_is_seeded(self):
        ds = _dataset(20)
        a = [y.tolist() for _, y in DataLoader(ds, batch_size=5, shuffle=True, rng=7)]
        b = [y.tolist() for _, y in DataLoader(ds, batch_size=5, shuffle=True, rng=7)]
        assert a == b

    def test_shuffle_changes_order_across_epochs(self):
        ds = _dataset(50)
        loader = DataLoader(ds, batch_size=50, shuffle=True, rng=7)
        first = next(iter(loader))[1].tolist()
        second = next(iter(loader))[1].tolist()
        assert first != second  # RNG advances between epochs

    def test_no_shuffle_preserves_order(self):
        ds = _dataset(6)
        batches = [y for _, y in DataLoader(ds, batch_size=2)]
        assert np.array_equal(np.concatenate(batches), ds.labels)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(_dataset(), batch_size=0)

"""FaultConfiguration: a concrete draw from a fault model.

A configuration is an ordered mapping from parameter name to a uint32 XOR
mask of the parameter's shape — the realisation of the error tensor ``e``
in the paper's ``W' = e ⊕ W``. It doubles as the state of the MCMC kernels
in :mod:`repro.mcmc`: proposals toggle bits in the masks, and the
stationary distribution is the fault model's prior.

Storage is dual-representation: each target's mask is held either dense
(a uint32 array) or sparse (a :class:`~repro.faults.sparse.SparseMask`,
the form :meth:`~FaultConfiguration.sample` produces). Sparse storage keeps every campaign
step O(K) in the number of flipped bits at small p; :meth:`~FaultConfiguration.mask` converts
a target to dense *in place* on first access, so code holding the
returned array keeps the usual mutable-reference semantics.

Configurations travel in blocks: a :class:`ConfigurationBlock` is a list
of rows plus, per target, every row's flips folded into one flat
(index, lane) pair over the stacked ``(rows, *shape)`` tensor — the form
the segment engine XORs in one step and the metrics count in one pass.
:meth:`FaultConfiguration.sample_block` draws a block row by row, in the
same RNG order as that many :meth:`~FaultConfiguration.sample` calls, and
folds each target once for all rows; :meth:`ConfigurationBlock.of` wraps
configurations that already exist (MCMC states, one statistic row).
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.bits.float32 import BITS_PER_FLOAT, count_set_bits, fold_positions, mask_to_positions
from repro.faults.model import FaultModel
from repro.faults.sparse import SparseMask
from repro.nn.module import Parameter

__all__ = ["FaultConfiguration", "ConfigurationBlock"]


class FaultConfiguration:
    """Named XOR masks over a fixed set of targets.

    Construct via :meth:`sample` (a draw from a fault model) or
    :meth:`empty` (the no-fault configuration), not directly, unless you
    have masks from elsewhere.
    """

    def __init__(self, masks: Mapping[str, np.ndarray | SparseMask]) -> None:
        self._masks: dict[str, np.ndarray | SparseMask] = {}
        for name, mask in masks.items():
            if isinstance(mask, SparseMask):
                self._masks[name] = mask
                continue
            mask = np.asarray(mask)
            if mask.dtype != np.uint32:
                raise TypeError(f"mask for {name!r} must be uint32, got {mask.dtype}")
            self._masks[name] = mask

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def sample(
        cls,
        targets: list[tuple[str, Parameter]],
        fault_model: FaultModel,
        rng: np.random.Generator,
    ) -> "FaultConfiguration":
        """Draw one mask per target from ``fault_model``, in sparse form.

        Row 0 of a one-row :meth:`sample_block`: targets are drawn in order
        with :meth:`FaultModel.sample_positions`, which is RNG-identical to
        the dense :meth:`FaultModel.sample_mask`.
        """
        return cls.sample_block(targets, fault_model, rng, 1).rows[0]

    @classmethod
    def sample_block(
        cls,
        targets: list[tuple[str, Parameter]],
        fault_model: FaultModel,
        rng: np.random.Generator,
        rows: int,
    ) -> "ConfigurationBlock":
        """Draw ``rows`` configurations into one :class:`ConfigurationBlock`.

        The draws are exactly those of ``rows`` successive :meth:`sample`
        calls — row by row, targets in order within a row — so the RNG ends
        in the same state. Only the work after the draws is shared: per
        target, the rows' positions are offset by row into the stacked bit
        space, range-checked once and folded once
        (:func:`~repro.bits.float32.fold_positions`). Each row's
        sparse masks are unvalidated slices of that fold, and the fold
        itself becomes the block's per-target (index, lane) pair.
        """
        if rows <= 0:
            raise ValueError(f"rows must be positive, got {rows}")
        models = [
            (name, param.data.shape, fault_model.for_target(name)) for name, param in targets
        ]
        drawn: list[list[np.ndarray]] = [[] for _ in models]
        for _ in range(rows):
            for positions, (_, shape, model) in zip(drawn, models):
                positions.append(model.sample_positions(shape, rng))
        row_ids = np.arange(rows, dtype=np.int64)
        flips = np.zeros(rows, dtype=np.int64)
        folds: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, int]] = {}
        row_masks: list[dict[str, SparseMask]] = [{} for _ in range(rows)]
        for positions, (name, shape, _) in zip(drawn, models):
            size = math.prod(shape)
            bits_per_row = size * BITS_PER_FLOAT
            counts = [part.size for part in positions]
            raw = np.concatenate(positions).astype(np.int64, copy=False)
            if raw.size and (raw.min() < 0 or raw.max() >= bits_per_row):
                raise ValueError(f"bit position out of range for {name!r} of shape {shape}")
            raw += np.repeat(row_ids * bits_per_row, counts)
            index, lanes = fold_positions(raw)
            bounds = np.searchsorted(index, np.arange(rows + 1, dtype=np.int64) * size)
            per_row = np.diff(bounds)
            elements = index - np.repeat(row_ids * size, per_row)
            weight = np.zeros(index.size + 1, dtype=np.int64)
            np.cumsum(np.bitwise_count(lanes), out=weight[1:])
            flips += np.diff(weight[bounds])
            folds[name] = (index, lanes, bounds, size)
            edges = bounds.tolist()
            for masks, start, stop in zip(row_masks, edges, edges[1:]):
                masks[name] = SparseMask._trusted(shape, elements[start:stop], lanes[start:stop])
        return ConfigurationBlock([cls(masks) for masks in row_masks], flips=flips, folds=folds)

    @classmethod
    def empty(cls, targets: list[tuple[str, Parameter]]) -> "FaultConfiguration":
        """The all-zeros (fault-free) configuration over ``targets``."""
        return cls({name: SparseMask.empty(param.shape) for name, param in targets})

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    def mask(self, name: str) -> np.ndarray:
        """Dense uint32 mask for ``name``.

        A sparsely stored target is densified once and the dense array
        becomes the authoritative storage from then on (callers may mutate
        the returned array).
        """
        stored = self._masks[name]
        if isinstance(stored, SparseMask):
            stored = stored.to_dense()
            self._masks[name] = stored
        return stored

    def sparse(self, name: str) -> SparseMask:
        """Sparse view of ``name``'s mask.

        Cheap for sparsely stored targets; for dense storage a fresh sparse
        view is computed (the dense array stays authoritative, since
        callers may hold mutable references to it).
        """
        stored = self._masks[name]
        if isinstance(stored, SparseMask):
            return stored
        return SparseMask.from_dense(stored)

    def touches(self, name: str) -> bool:
        """Whether ``name`` has at least one flipped bit (O(1) when sparse)."""
        stored = self._masks.get(name)
        if stored is None:
            return False
        if isinstance(stored, SparseMask):
            return not stored.is_empty()
        return bool(stored.any())

    def names(self) -> list[str]:
        return list(self._masks)

    def sparse_items(self) -> Iterator[tuple[str, SparseMask]]:
        """Iterate ``(name, sparse mask)`` pairs without densifying."""
        return iter([(name, self.sparse(name)) for name in self._masks])

    def __contains__(self, name: str) -> bool:
        return name in self._masks

    def __len__(self) -> int:
        return len(self._masks)

    # ------------------------------------------------------------------ #
    # statistics and comparison
    # ------------------------------------------------------------------ #

    def total_flips(self) -> int:
        """Total number of flipped bits (Hamming weight) across all targets."""
        return sum(self.flips_per_target().values())

    def flips_per_target(self) -> dict[str, int]:
        return {
            name: mask.count_set_bits() if isinstance(mask, SparseMask) else count_set_bits(mask)
            for name, mask in self._masks.items()
        }

    def flip_positions(self) -> dict[str, np.ndarray]:
        """Flat bit positions set in each target's mask (diagnostic)."""
        return {
            name: mask.to_positions() if isinstance(mask, SparseMask) else mask_to_positions(mask)
            for name, mask in self._masks.items()
        }

    def log_prob(self, fault_model: FaultModel) -> float:
        """Joint log-probability of this configuration under ``fault_model``."""
        total = 0.0
        for name, mask in self._masks.items():
            target_model = fault_model.for_target(name)
            if isinstance(mask, SparseMask):
                total += target_model.log_prob_sparse(mask)
            else:
                total += target_model.log_prob_mask(mask)
        return total

    def is_empty(self) -> bool:
        return not any(self.touches(name) for name in self._masks)

    def same_mask(self, other: "FaultConfiguration", name: str) -> bool:
        """Whether this and ``other`` hold equal masks for one target.

        Storage-aware and non-mutating: a mask shared by both (the hot
        MCMC diff path — proposals share every mask they leave alone with
        the state) is equal in O(1), sparse/sparse compares canonical
        forms in O(K), dense/dense compares raw arrays, and mixed storage
        densifies a transient view without converting either operand in
        place.
        """
        a = self._masks.get(name)
        b = other._masks.get(name)
        if a is None or b is None:
            return a is b
        if a is b:
            return True
        if isinstance(a, SparseMask) and isinstance(b, SparseMask):
            return a == b
        dense_a = a.to_dense() if isinstance(a, SparseMask) else a
        dense_b = b.to_dense() if isinstance(b, SparseMask) else b
        return np.array_equal(dense_a, dense_b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultConfiguration):
            return NotImplemented
        if set(self._masks) != set(other._masks):
            return False
        # Compare via non-mutating sparse views: canonical (sorted unique
        # elements, nonzero lanes) form, so dense and sparse storage of the
        # same mask compare equal.
        return all(self.sparse(name) == other.sparse(name) for name in self._masks)

    def __hash__(self) -> int:  # configurations are mutable containers; identity hash
        return id(self)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Write the masks to an ``.npz`` archive.

        Campaigns use this to persist noteworthy configurations (e.g. the
        critical fault sets found by :mod:`repro.sensitivity`) so an
        analysis can be replayed exactly on another machine.
        """
        import os

        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        np.savez(path, **{name: self.mask(name) for name in self._masks})

    @classmethod
    def load(cls, path: str) -> "FaultConfiguration":
        """Read a configuration written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            masks = {name: archive[name] for name in archive.files}
        return cls(masks)

    def __repr__(self) -> str:
        return f"FaultConfiguration(targets={len(self._masks)}, flips={self.total_flips()})"


class ConfigurationBlock:
    """An ordered run of configuration rows, each target folded over all rows.

    ``fold(name)`` returns the target's flips in every row as one flat
    ``(index, lanes)`` pair: ``index`` addresses the flattened
    ``(len(block), *shape)`` stack (element ``e`` of row ``i`` is
    ``i * size + e``) in ascending order, so each row's entries are
    contiguous, and ``lanes`` holds their nonzero lane masks. A block from
    :meth:`FaultConfiguration.sample_block` carries its folds and per-row
    flip counts from the draw; one from :meth:`of` computes each on first
    request from the rows' sparse views. Sub-blocks (``block[a:b]``,
    :meth:`select`) carry the folds already computed. A fold is a snapshot
    of the rows it was taken from: mutate a row's dense mask afterwards
    and the block no longer describes it.
    """

    __slots__ = ("rows", "_flips", "_folds")

    def __init__(
        self,
        rows: list[FaultConfiguration],
        flips: np.ndarray | None = None,
        folds: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, int]] | None = None,
    ) -> None:
        self.rows = rows
        self._flips = flips
        # name → (index, lanes, bounds, size); row i's entries are
        # index[bounds[i]:bounds[i + 1]], size the target's element count
        self._folds = {} if folds is None else folds

    @classmethod
    def of(cls, rows: Sequence[FaultConfiguration]) -> "ConfigurationBlock":
        """A block over existing configurations (folded lazily, per target)."""
        return cls(list(rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[FaultConfiguration]:
        return iter(self.rows)

    @property
    def flips(self) -> np.ndarray:
        """Per-row Hamming weight across all targets (int64)."""
        if self._flips is None:
            self._flips = np.array([row.total_flips() for row in self.rows], dtype=np.int64)
        return self._flips

    def names(self) -> list[str]:
        """Target names present in any row, in first-seen order."""
        return list(dict.fromkeys(name for row in self.rows for name in row.names()))

    def fold(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(index, lanes)`` of target ``name`` over the stacked rows (see the class)."""
        fold = self._folds.get(name)
        if fold is None:
            fold = self._folds[name] = self._fold_rows(name)
        return fold[0], fold[1]

    def _fold_rows(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        indices, lanes, counts, size = [], [], [0], 0
        for i, row in enumerate(self.rows):
            if name in row and row.touches(name):
                sparse = row.sparse(name)
                size = sparse.size
                indices.append(sparse.elements + i * size)
                lanes.append(sparse.lane_masks)
                counts.append(sparse.elements.size)
            else:
                counts.append(0)
        if not indices:
            empty = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
            return *empty, np.zeros(len(self.rows) + 1, dtype=np.int64), size
        return np.concatenate(indices), np.concatenate(lanes), np.cumsum(counts), size

    def __getitem__(self, rows: slice) -> "ConfigurationBlock":
        """The contiguous sub-block ``rows`` (a step-1 slice)."""
        start, stop, step = rows.indices(len(self.rows))
        if step != 1:
            raise ValueError("a block slices with step 1 only")
        stop = max(start, stop)
        folds = {}
        for name, (index, lanes, bounds, size) in self._folds.items():
            first, last = bounds[start], bounds[stop]
            folds[name] = (
                index[first:last] - start * size,
                lanes[first:last],
                bounds[start : stop + 1] - first,
                size,
            )
        flips = None if self._flips is None else self._flips[start:stop]
        return ConfigurationBlock(self.rows[start:stop], flips=flips, folds=folds)

    def select(self, positions: np.ndarray) -> "ConfigurationBlock":
        """The sub-block of the rows at ascending ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        folds = {}
        for name, (index, lanes, bounds, size) in self._folds.items():
            starts = bounds[positions]
            counts = bounds[positions + 1] - starts
            new_bounds = np.zeros(positions.size + 1, dtype=np.int64)
            np.cumsum(counts, out=new_bounds[1:])
            take = np.repeat(starts - new_bounds[:-1], counts) + np.arange(new_bounds[-1])
            shift = np.repeat((positions - np.arange(positions.size)) * size, counts)
            folds[name] = (index[take] - shift, lanes[take], new_bounds, size)
        flips = None if self._flips is None else self._flips[positions]
        return ConfigurationBlock([self.rows[i] for i in positions.tolist()], flips=flips, folds=folds)

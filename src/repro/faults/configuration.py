"""FaultConfiguration: a concrete draw from a fault model.

A configuration is an ordered mapping from parameter name to a uint32 XOR
mask of the parameter's shape — the realisation of the error tensor ``e``
in the paper's ``W' = e ⊕ W``. It doubles as the state of the MCMC kernels
in :mod:`repro.mcmc`: proposals toggle bits in the masks, and the
stationary distribution is the fault model's prior.

Storage is dual-representation: each target's mask is held either dense
(a uint32 array) or sparse (a :class:`~repro.faults.sparse.SparseMask`,
the form :meth:`sample` produces). Sparse storage keeps every campaign
step O(K) in the number of flipped bits at small p; :meth:`mask` converts
a target to dense *in place* on first access, so code holding the
returned array keeps the usual mutable-reference semantics.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Mapping

import numpy as np

from repro.bits.float32 import count_set_bits, mask_to_positions
from repro.faults.model import FaultModel
from repro.faults.sparse import SparseMask
from repro.nn.module import Parameter

__all__ = ["FaultConfiguration"]


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

        Targets are drawn in order with :meth:`FaultModel.sample_sparse`,
        which is RNG-identical to the dense :meth:`FaultModel.sample_mask`.
        """
        return cls(
            {
                name: fault_model.for_target(name).sample_sparse(param.data.shape, rng)
                for name, param in targets
            }
        )

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
        the returned array, as MCMC proposals do).
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

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        """Iterate ``(name, dense mask)`` pairs (densifying as needed)."""
        return iter([(name, self.mask(name)) for name in self._masks])

    def sparse_items(self) -> Iterator[tuple[str, SparseMask]]:
        """Iterate ``(name, sparse mask)`` pairs without densifying."""
        return iter([(name, self.sparse(name)) for name in self._masks])

    def __contains__(self, name: str) -> bool:
        return name in self._masks

    def __len__(self) -> int:
        return len(self._masks)

    # ------------------------------------------------------------------ #
    # algebra and statistics
    # ------------------------------------------------------------------ #

    def copy(self) -> "FaultConfiguration":
        return FaultConfiguration({name: mask.copy() for name, mask in self._masks.items()})

    def xor(self, other: "FaultConfiguration") -> "FaultConfiguration":
        """Elementwise XOR — used by MCMC proposals to toggle flip bits.

        Sparse ⊕ sparse stays sparse (O(K)); any dense operand produces a
        dense result.
        """
        if set(self._masks) != set(other._masks):
            raise KeyError("configurations cover different targets")
        merged: dict[str, np.ndarray | SparseMask] = {}
        for name in self._masks:
            a, b = self._masks[name], other._masks[name]
            if isinstance(a, SparseMask) and isinstance(b, SparseMask):
                merged[name] = a.xor(b)
            else:
                merged[name] = self.mask(name) ^ other.mask(name)
        return FaultConfiguration(merged)

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

        Storage-aware and non-mutating: sparse/sparse compares canonical
        forms in O(K), dense/dense compares raw arrays (memory-bandwidth
        cheap — proposals densify, so this is the hot MCMC diff path), and
        mixed storage densifies a transient view without converting either
        operand in place.
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

    def fingerprint(self) -> str:
        """Content hash of the masks (storage- and access-order-independent).

        Two configurations that compare equal (:meth:`__eq__`) share a
        fingerprint whether their masks are stored sparse or dense; unlike
        ``hash(self)`` (identity), the fingerprint follows the *value*, so
        mutating a mask changes it. Cost is O(K) in flipped bits plus one
        hash pass — this keys per-configuration statistic memoisation
        (:class:`~repro.mcmc.targets.TemperedErrorTarget`).
        """
        digest = hashlib.blake2b(digest_size=16)
        for name in sorted(self._masks):
            sparse = self.sparse(name)
            digest.update(name.encode("utf-8"))
            digest.update(np.int64(sparse.elements.size).tobytes())
            digest.update(np.ascontiguousarray(sparse.elements).tobytes())
            digest.update(np.ascontiguousarray(sparse.lane_masks).tobytes())
        return digest.hexdigest()

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

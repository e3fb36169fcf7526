"""Delta-forward re-evaluation for chain campaigns.

MCMC and tempered chains evaluate *sequentially related* fault
configurations: each proposal is a small perturbation of the chain's
current state, typically confined to one parameter tensor deep in the
network, yet the standard statistic pays a full forward pass per proposal.
This module is a thin session layer over the segment engine
(:class:`~repro.core.batched.BatchedNetworkEvaluator`). It caches, per
chain, the boundary activations the chain's *current* state produces at
every segment of the engine's verified forward chain, diffs each proposal
against the current state mask by mask, and recomputes only from the
deepest segment whose fault targets changed — starting from the engine's
golden prefix when the delta spans the whole chain. Proposals from
parallel chains or tempering rungs are evaluated as a *round*, grouped by
cut: the candidates sharing a cut stack their entry activations and run
through one :meth:`~repro.core.batched.BatchedNetworkEvaluator.run_segments`
call that starts at that cut, so a round makes one call per distinct cut
and no candidate recomputes a segment below its own cut.

Bit-identity contract (the one every fast path honours): the cached
activation entering segment ``j`` is valid for a candidate precisely when
the candidate's masks equal the current state's on every target owned by
segments ``< j`` — the prefix then executes identical ops on identical
parameters — and the recomputed suffix is the engine's differentially
tested machinery. A :class:`DeltaChainEvaluator` is one of the two round
scorers the chain samplers take; the other, the standard path's
:class:`~repro.mcmc.metropolis.StatisticRounds`, calls the plain statistic
per candidate. Scored statistics and hazard row/evaluation accounting are
identical between the two, and the samplers' loop and RNG streams do not
depend on which scores; only op-granular FP error event *counts* may
differ (fewer ops run), as documented for
:meth:`BatchedNetworkEvaluator.evaluate_logits`.

Observability: cached-boundary fetches are billed to the ``delta.reuse``
profiler phase and recomputed suffixes to ``delta.recompute``;
``delta.cache.hit`` / ``delta.cache.miss`` counters (plus
``delta.segments.reused``, measured relative to the static prefix cut)
land in the campaign metrics digest when a driver registry is attached.
Each candidate counts against its own cut: a hit (and ``cut - base``
reused segments) when it enters at a cached boundary, a miss when it
enters at the golden prefix.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.core.batched import BatchedNetworkEvaluator
from repro.core.hazard import NumericalHazardGuard
from repro.faults.configuration import ConfigurationBlock, FaultConfiguration

__all__ = ["DeltaSession", "DeltaChainEvaluator"]


class DeltaSession:
    """Per-chain cache of the current state's segment boundary activations.

    A session tracks one chain (or one tempering rung): the committed
    :class:`FaultConfiguration` the chain currently sits at, and the
    activations entering every chain segment beyond the static prefix cut
    under that state's faults. Evaluations are *staged* — the engine
    scores a candidate and parks its boundaries here — and only become the
    session's state when the sampler accepts and calls :meth:`commit`;
    a rejected candidate is simply overwritten by the next round.
    """

    __slots__ = ("_engine", "state", "_bounds", "_pending")

    def __init__(self, engine: "DeltaChainEvaluator") -> None:
        self._engine = engine
        #: the committed configuration, or None before the first commit
        self.state: FaultConfiguration | None = None
        # activation entering step j, keyed by j in (base, n]; [n] = logits
        self._bounds: dict[int, np.ndarray] | None = None
        self._pending: tuple[FaultConfiguration, dict[int, np.ndarray]] | None = None

    def cut_for(self, candidate: FaultConfiguration) -> int:
        """Deepest segment index the cached boundaries stay valid up to.

        Returns the minimum owning step over targets whose masks differ
        from the committed state (0 when there is no committed state yet,
        i.e. recompute everything; ``n_steps`` when nothing differs, i.e.
        the cached logits can be reused outright).
        """
        state = self.state
        if state is None:
            return 0
        cut = self._engine.n_steps
        for name, owner in self._engine.owners.items():
            if owner >= cut:
                continue
            if not state.same_mask(candidate, name):
                cut = owner
        return cut

    def boundary(self, index: int) -> np.ndarray:
        """Cached activation entering step ``index`` for the committed state."""
        return self._bounds[index]

    def logits(self) -> np.ndarray:
        """Cached logits of the committed state."""
        return self._bounds[self._engine.n_steps]

    def inherit(self, start: int) -> dict[int, np.ndarray]:
        """Boundaries valid for a candidate recomputed from ``start``."""
        if self._bounds is None:
            return {}
        return {index: value for index, value in self._bounds.items() if index <= start}

    def stage(
        self, candidate: FaultConfiguration, bounds: dict[int, np.ndarray] | None
    ) -> None:
        """Park an evaluated candidate (``None`` bounds = full logits reuse)."""
        self._pending = (candidate, self._bounds if bounds is None else bounds)

    def commit(self) -> None:
        """Promote the staged candidate to the session's committed state."""
        if self._pending is None:
            raise RuntimeError("no staged evaluation to commit")
        self.state, self._bounds = self._pending
        self._pending = None


class DeltaChainEvaluator:
    """Score rounds of chain proposals via incremental delta forwards.

    Parameters
    ----------
    segments:
        The injector's segment engine; its steps, static cut and target
        ownership are read, never recomputed.

    One evaluator serves any number of concurrent :meth:`session`\\ s; all
    mutable chain state lives in the sessions.
    """

    def __init__(self, segments: BatchedNetworkEvaluator) -> None:
        self.segments = segments
        self.injector = segments.injector
        #: number of chain segments; boundary index n_steps holds the logits
        self.n_steps = len(segments.steps)
        #: static prefix cut — no fault target lives below it, ever
        self.base = segments.cut
        #: dotted target name → owning chain segment index
        self.owners = segments.owners

    def session(self) -> DeltaSession:
        """A fresh per-chain session (no committed state yet)."""
        return DeltaSession(self)

    def evaluate_round(
        self,
        sessions: list[DeltaSession],
        candidates: list[FaultConfiguration],
        guard: NumericalHazardGuard | None = None,
    ) -> list[float]:
        """Score one candidate per session; one grouped forward per distinct cut.

        Returns the campaign statistic (hazard-aware classification error)
        per candidate, bit-identical to the standard path's round
        (:class:`~repro.mcmc.metropolis.StatisticRounds`, one standard
        statistic call per candidate). Each session is left with the
        candidate *staged*: call :meth:`DeltaSession.commit` on acceptance.

        Candidates whose masks equal their session's committed state reuse
        the cached logits outright (``guard.score`` still runs, so hazard
        evaluation/row accounting matches the standard path exactly); the
        rest are grouped by cut (the shallowest segment whose targets
        changed, floored at the static prefix cut). Each group stacks its
        entry activations and runs one ``run_segments`` call from its own
        cut, so a deep-layer change is not recomputed from a shallow one's
        cut in the same round. Scored values and staged boundaries do not
        depend on the grouping.
        """
        if len(sessions) != len(candidates):
            raise ValueError(
                f"sessions ({len(sessions)}) and candidates ({len(candidates)}) misaligned"
            )
        if not candidates:
            raise ValueError("need at least one candidate")
        injector = self.injector
        guard = guard or injector._active_guard or NumericalHazardGuard()
        metrics = injector._active_metrics
        block = ConfigurationBlock.of(candidates)
        if metrics is not None:
            from repro.core.injector import _record_configurations

            _record_configurations(metrics, block)
        labels = injector.labels
        n = self.n_steps
        cuts = [session.cut_for(candidate) for session, candidate in zip(sessions, candidates)]
        values: list[float] = [0.0] * len(candidates)

        # One recompute per distinct cut: each group enters at its own
        # cut, so a deep-layer change never pays for a shallow one's
        # segments. A cut at or below the static prefix (or a session with
        # no state yet) spans the whole chain and enters at the golden
        # prefix, exactly like ``evaluate_logits``.
        groups: dict[int, list[int]] = {}
        for index, cut in enumerate(cuts):
            if cut < n:
                groups.setdefault(max(cut, self.base), []).append(index)
                continue
            # Nothing changed (e.g. a block resample redrew an identical —
            # often empty — mask): the committed logits are the candidate's.
            with obs.span("delta.reuse"):
                logits = sessions[index].logits()
            values[index] = guard.score(logits, labels)
            sessions[index].stage(candidates[index], None)
            if metrics is not None:
                metrics.inc("delta.cache.hit")
                metrics.inc("delta.segments.reused", n - self.base)

        for start, members in sorted(groups.items()):
            if start == self.base:
                entry = self.segments.prefix
                entry_diverged = False
            else:
                with obs.span("delta.reuse"):
                    entry = np.stack([sessions[index].boundary(start) for index in members])
                entry_diverged = True
            if metrics is not None:
                if start > self.base:
                    metrics.inc("delta.cache.hit", len(members))
                    metrics.inc("delta.segments.reused", (start - self.base) * len(members))
                else:
                    metrics.inc("delta.cache.miss", len(members))
            rows = block.select(members)
            boundaries: list = []
            with obs.span("delta.recompute"):
                self.segments.run_segments(
                    rows, entry, start, entry_diverged, guard=guard, boundaries=boundaries
                )
            for position, index in enumerate(members):
                bounds = sessions[index].inherit(start)
                for offset, state in enumerate(boundaries):
                    if state.diverged:
                        # Contiguous copy: the row must survive the group's
                        # big stacked array and feed later GEMMs exactly as
                        # a sequential activation would.
                        bounds[start + 1 + offset] = np.ascontiguousarray(state.data[position])
                    else:
                        bounds[start + 1 + offset] = state.data
                values[index] = guard.score(bounds[n], labels)
                sessions[index].stage(candidates[index], bounds)
        return values

"""Parallel campaign execution over a multiprocessing worker pool.

Large BDLFI studies decompose into many *independent* campaigns — one per
flip probability, per layer, per chain configuration. Each campaign is
described by a :class:`~repro.exec.specs.CampaignSpec` and runs against a
:class:`~repro.core.injector.BayesianFaultInjector`; this module ships the
golden weights plus a model builder to worker processes, rebuilds the
injector there, and executes specs concurrently.

Determinism is structural, not accidental: every campaign draws exclusively
from named :class:`~repro.utils.rng.RngFactory` substreams keyed by
``(seed, stream, p)``, so a spec produces bit-identical chains whether it
runs in-process, in a worker, before or after its siblings. Parallel sweeps
therefore match sequential sweeps exactly.

Fault tolerance (fitting, for a fault-injection tool): each task runs in
its own worker process with a per-task timeout; a worker that crashes or
times out is terminated and the task retried a bounded number of attempts
before the executor gives up. ``workers=1`` — or an environment where
process spawning fails — runs the same tasks in-process through the same
journal, accounting and events, sharing one golden model and one
:class:`~repro.core.prefix.GoldenTrace` per distinct golden model.

Attach a :class:`~repro.exec.journal.CampaignJournal` and execution also
becomes *durable*: every completed task is fsync'd to the journal from the
driver process (so it survives worker SIGKILL), journaled tasks are skipped
on re-execution, and — because task identity is the RNG key — a resumed run
is bit-identical to an uninterrupted one.

Failure policy: retries back off exponentially with deterministic jitter,
retry accounting is broken out by cause (crash / timeout / chaos), and a
*poison* task — one that exhausts ``max_attempts`` — either aborts the run
(``on_failure="abort"``, the default) or is quarantined into
``stats.failed_tasks`` with the run continuing degraded
(``on_failure="degrade"``); degraded results carry explicit completeness
accounting so downstream summaries stay honest about what completed.

Chaos sites (:mod:`repro.exec.chaos`): ``worker.sigkill`` /
``worker.hang`` / ``worker.slow_start`` fire inside the worker keyed on
``(task index, attempt)``; ``pipe.drop`` / ``pipe.duplicate`` perturb the
driver's result pipe. All compile to a ``None`` check when chaos is off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.exec import chaos as chaos_mod
from repro.exec.specs import CampaignSpec
from repro.obs.estimator import publish_outcome
from repro.obs.profile import clock_s
from repro.faults.targets import TargetSpec
from repro.utils.logging import get_logger

__all__ = [
    "InjectorRecipe",
    "CampaignTask",
    "FailedTask",
    "ExecutionStats",
    "ParallelCampaignExecutor",
    "CampaignExecutionError",
]

#: retry causes tracked individually (satellite accounting + metrics names)
RETRY_CAUSES = ("crash", "timeout", "chaos")

_LOGGER = get_logger("exec")


class CampaignExecutionError(RuntimeError):
    """A campaign task failed permanently (attempts exhausted or it raised)."""


@dataclass(frozen=True)
class InjectorRecipe:
    """Everything a worker needs to rebuild a ``BayesianFaultInjector``.

    Two transport modes:

    * *builder + state* (preferred): ``model_builder`` is a picklable
      zero-argument callable constructing the architecture (e.g.
      ``functools.partial(paper_mlp, rng=0)``) and ``state`` is the golden
      checkpoint (a ``state_dict`` of numpy arrays) loaded into it;
    * *embedded model*: the model object itself rides along. Convenient for
      in-process use and fork-started workers; requires the model to pickle
      under spawn-started pools.

    Recipes are immutable and reusable: one recipe can back every task of a
    sweep, while layerwise campaigns build one recipe per layer (different
    target spec and seed).
    """

    inputs: np.ndarray
    labels: np.ndarray
    seed: int = 0
    target_spec: TargetSpec | None = None
    model_builder: Callable[[], Any] | None = None
    state: Mapping[str, np.ndarray] | None = None
    model: Any | None = None
    #: segment-engine selection forwarded to the injector (None = auto-detect);
    #: every rebuilt injector builds its own engine, so the choice travels
    #: with the recipe rather than the live injector
    fast: bool | None = None

    def __post_init__(self) -> None:
        if (self.model is None) == (self.model_builder is None):
            raise ValueError("provide exactly one of model / model_builder")
        if self.model is not None and self.state is not None:
            raise ValueError("state only applies to the model_builder transport")

    @classmethod
    def from_model(
        cls,
        model: Any,
        inputs: np.ndarray,
        labels: np.ndarray,
        *,
        spec: TargetSpec | None = None,
        seed: int = 0,
        model_builder: Callable[[], Any] | None = None,
        fast: bool | None = None,
    ) -> "InjectorRecipe":
        """Capture a live golden model, preferring checkpoint transport.

        With ``model_builder`` given, only the architecture recipe and the
        current weights travel to workers; otherwise the model object is
        embedded whole.
        """
        if model_builder is None:
            return cls(
                inputs=inputs, labels=labels, seed=seed, target_spec=spec, model=model, fast=fast
            )
        state = {name: array.copy() for name, array in model.state_dict().items()}
        return cls(
            inputs=inputs,
            labels=labels,
            seed=seed,
            target_spec=spec,
            model_builder=model_builder,
            state=state,
            fast=fast,
        )

    def golden_key(self) -> tuple:
        """Identity of the golden model: the embedded object, or the ``(builder, state)`` pair."""
        if self.model is not None:
            return (id(self.model),)
        return (id(self.model_builder), id(self.state))

    def golden_model(self):
        """The golden model: the embedded object, or a fresh build loaded with ``state``."""
        if self.model is not None:
            return self.model
        model = self.model_builder()
        if self.state is not None:
            model.load_state_dict(dict(self.state))
        return model

    def build(self, model=None, trace=None):
        """Construct the injector (golden model in eval mode + eval batch).

        ``model`` (from :meth:`golden_model`) and ``trace`` (a
        :class:`~repro.core.prefix.GoldenTrace` of it) let recipes over one
        golden model share its build and its fault-free forward.
        """
        from repro.core.injector import BayesianFaultInjector

        return BayesianFaultInjector(
            self.golden_model() if model is None else model, self.inputs, self.labels,
            spec=self.target_spec, seed=self.seed, fast=self.fast, trace=trace,
        )


@dataclass(frozen=True)
class CampaignTask:
    """One schedulable unit: a spec bound to the recipe that hosts it."""

    spec: CampaignSpec
    recipe: InjectorRecipe


@dataclass(frozen=True)
class FailedTask:
    """One poison task quarantined under ``on_failure="degrade"``."""

    index: int
    key: str | None
    reason: str
    attempts: int
    cause: str  # "crash" | "timeout" | "chaos" | "error"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "key": self.key,
            "reason": self.reason,
            "attempts": self.attempts,
            "cause": self.cause,
        }


@dataclass
class ExecutionStats:
    """Bookkeeping from the last ``execute`` call."""

    tasks: int = 0
    timeouts: int = 0
    crashes: int = 0
    duration_s: float = 0.0
    parallel: bool = False
    #: tasks satisfied from the campaign journal instead of being re-run
    journal_hits: int = 0
    #: liveness beats emitted for still-running workers (``heartbeat_s``)
    heartbeats: int = 0
    #: retries broken out by cause; ``retries`` is their exact sum
    retries_by_cause: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in RETRY_CAUSES}
    )
    #: result-pipe messages the driver discarded / saw twice (chaos accounting)
    pipe_drops: int = 0
    pipe_duplicates: int = 0
    #: journal appends that failed durably but were tolerated under degrade
    journal_errors: int = 0
    #: poison tasks quarantined instead of aborting (``on_failure="degrade"``)
    failed_tasks: list[FailedTask] = field(default_factory=list)
    #: longest a running worker went without any sign of life (beat or result)
    worst_heartbeat_gap_s: float = 0.0

    @property
    def retries(self) -> int:
        """Total retries across causes (always equals the per-cause sum)."""
        return sum(self.retries_by_cause.values())

    @property
    def failed(self) -> int:
        return len(self.failed_tasks)

    @property
    def completed(self) -> int:
        """Tasks with a usable result (fresh runs plus journal hits)."""
        return self.tasks - self.failed

    def count_retry(self, cause: str) -> None:
        self.retries_by_cause[cause] = self.retries_by_cause.get(cause, 0) + 1

    def note_gap(self, gap_s: float) -> None:
        """Record one observed worker-silence interval (keeps the max)."""
        if gap_s > self.worst_heartbeat_gap_s:
            self.worst_heartbeat_gap_s = gap_s

    def accounting(self) -> dict:
        """Explicit completeness accounting for degraded results.

        ``completed + failed == tasks`` by construction — a task is either
        delivered or named in ``failed_tasks``; there is no third bucket,
        so no silent task loss.
        """
        return {
            "tasks": self.tasks,
            "completed": self.completed,
            "failed": self.failed,
            "failed_tasks": [task.to_dict() for task in self.failed_tasks],
        }

    def to_dict(self) -> dict:
        """Full JSON view of the stats (postmortem bundles, status server)."""
        return {
            **self.accounting(),
            "duration_s": self.duration_s,
            "parallel": self.parallel,
            "journal_hits": self.journal_hits,
            "journal_errors": self.journal_errors,
            "heartbeats": self.heartbeats,
            "worst_heartbeat_gap_s": self.worst_heartbeat_gap_s,
            "retries": self.retries,
            "retries_by_cause": dict(self.retries_by_cause),
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "pipe_drops": self.pipe_drops,
            "pipe_duplicates": self.pipe_duplicates,
        }

    def summary(self) -> str:
        """One-line completion summary (printed by the CLI).

        Leads with wall elapsed and the mean completion rate, then only
        the nonzero extras — a failure line should carry its own timing
        context for triage.
        """
        mode = "parallel" if self.parallel else "sequential"
        rate = f", {self.tasks / self.duration_s:.1f} tasks/s" if self.duration_s > 0 else ""
        line = f"{self.tasks} task(s) in {self.duration_s:.2f}s ({mode}{rate})"
        retry_parts = [
            f"{cause} {count}" for cause, count in self.retries_by_cause.items() if count
        ]
        extras = [
            f"{name} {value}"
            for name, value in (
                ("journal hits", self.journal_hits),
                ("retries", f"{self.retries} ({', '.join(retry_parts)})" if retry_parts else 0),
                ("timeouts", self.timeouts),
                ("crashes", self.crashes),
                ("failed", self.failed),
                (
                    "worst heartbeat gap",
                    f"{self.worst_heartbeat_gap_s:.2f}s" if self.worst_heartbeat_gap_s else 0,
                ),
            )
            if value
        ]
        return f"{line}; {', '.join(extras)}" if extras else line


@dataclass
class _Running:
    process: multiprocessing.process.BaseProcess
    connection: Any
    deadline: float | None
    started: float = 0.0
    last_beat: float = 0.0


def _enact_worker_chaos(chaos_ctx) -> None:
    """Install the shipped plan in the worker and enact the ``worker.*`` sites.

    Decisions key off ``(task index, attempt)``, so they are identical no
    matter which pool slot or machine runs the attempt — and a retried
    attempt rolls fresh coordinates, so a crashy site does not doom a task
    forever (bounded by ``max_attempts`` either way).
    """
    plan, index, attempt = chaos_ctx
    injector = chaos_mod.install(plan)
    if injector.should_fire("worker.sigkill", key=(index, attempt)):
        os._exit(137)  # SIGKILL exit signature: no cleanup, no pipe message
    if injector.should_fire("worker.hang", key=(index, attempt)):
        time.sleep(plan.hang_s)
    if injector.should_fire("worker.slow_start", key=(index, attempt)):
        time.sleep(plan.slow_start_s)


def _worker_main(task: CampaignTask, connection, obs_config: obs.WorkerObsConfig, chaos_ctx=None) -> None:
    """Worker entry point: rebuild the injector, run the spec, ship the result.

    ``obs_config`` is the driver's :class:`~repro.obs.WorkerObsConfig`:
    entering its session first replaces any observability state inherited through
    ``fork`` (and the default WARNING verbosity under spawn) with fresh
    instruments, so worker logs honour the driver's ``set_verbosity`` and
    worker trace events never duplicate driver-recorded ones. Worker-side
    observations ride home as a third tuple element on the result pipe.

    ``chaos_ctx`` is ``(ChaosPlan, task index, attempt)`` when chaos is
    on: the plan is installed worker-side (so journal/persist hooks fire
    in workers too) and the ``worker.*`` sites are enacted at startup.
    """
    try:
        with obs_config.session() as session:
            if chaos_ctx is not None:
                _enact_worker_chaos(chaos_ctx)
            # the campaign span is a sibling, not a child, of the build span,
            # so its profile path is the same as on the in-process path
            with obs.span("worker.build", kind=task.spec.kind, p=task.spec.p):
                injector = task.recipe.build()
            result = injector.run(task.spec)
            connection.send(("ok", result, session.worker_report()))
    except BaseException as exc:  # noqa: BLE001 — everything must cross the pipe
        try:
            connection.send(("error", exc))
        except Exception:
            connection.send(("error", RuntimeError(f"unpicklable worker error: {exc!r}")))
    finally:
        connection.close()


class ParallelCampaignExecutor:
    """Fan a list of campaign specs out over worker processes.

    Parameters
    ----------
    recipe:
        Default :class:`InjectorRecipe` for :meth:`run`; :meth:`execute`
        accepts per-task recipes and ignores this.
    workers:
        Pool width; ``None`` means ``os.cpu_count()``. ``1`` (or an
        unavailable pool) runs every task in-process, one after the other —
        same results, journal records, stats and events, no processes.
    timeout_s:
        Per-task wall-clock budget. A task over budget is terminated and
        counts as a failed attempt. ``None`` disables the timeout.
    max_attempts:
        Total tries per task (first run + retries) before
        :class:`CampaignExecutionError` is raised. Worker *crashes* and
        timeouts are retried; exceptions raised by the campaign itself are
        deterministic and propagate immediately.
    start_method:
        Multiprocessing start method; defaults to ``fork`` where available
        (cheapest, and tolerant of closure-carrying recipes), else the
        platform default.
    journal:
        Optional :class:`~repro.exec.journal.CampaignJournal`. Completed
        tasks are durably recorded (fsync before scheduling continues) and
        journaled tasks are served from the journal instead of re-running —
        bit-identically, since task keys encode the full RNG identity.
    heartbeat_s:
        Liveness interval for still-running workers. Every ``heartbeat_s``
        seconds a running task emits an ``executor.heartbeat`` progress
        event (task index, worker pid, elapsed time), so a hung worker is
        visible long before its timeout fires. ``None`` disables beats.
    on_failure:
        ``"abort"`` (default): a task that exhausts ``max_attempts`` — or
        raises deterministically — raises :class:`CampaignExecutionError`,
        as before. ``"degrade"``: the poison task is quarantined into
        ``stats.failed_tasks``, its result slot stays ``None``, and the
        rest of the run completes; ``stats.accounting()`` then reports
        exactly which tasks completed and which failed.
    backoff_s:
        Base delay before re-scheduling a retried task. Attempt *n* waits
        ``backoff_s * 2**(n-1)``, scaled by a deterministic jitter in
        [0.5, 1.5) derived from the task index and attempt — no RNG
        stream is consumed, and two retried tasks never thundering-herd
        the pool in lockstep. ``0`` (default) retries immediately.
    chaos:
        Optional :class:`~repro.exec.chaos.ChaosPlan`. Installed for the
        duration of :meth:`execute` (unless a plan is already active
        process-wide) and shipped to workers, so the ``worker.*`` and
        ``pipe.*`` sites fire deterministically. Chaos never touches
        campaign RNG streams: a chaos run that completes is bit-identical
        to a clean one.
    """

    def __init__(
        self,
        recipe: InjectorRecipe | None = None,
        workers: int | None = None,
        timeout_s: float | None = None,
        max_attempts: int = 3,
        start_method: str | None = None,
        journal=None,
        heartbeat_s: float | None = None,
        on_failure: str = "abort",
        backoff_s: float = 0.0,
        chaos=None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(f"heartbeat_s must be positive, got {heartbeat_s}")
        if on_failure not in ("abort", "degrade"):
            raise ValueError(f'on_failure must be "abort" or "degrade", got {on_failure!r}')
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be non-negative, got {backoff_s}")
        self.recipe = recipe
        self.workers = workers
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self._start_method = start_method
        self.journal = journal
        self.heartbeat_s = heartbeat_s
        self.on_failure = on_failure
        self.backoff_s = backoff_s
        self.chaos = chaos
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(self, specs: Sequence[CampaignSpec], recipe: InjectorRecipe | None = None) -> list:
        """Execute ``specs`` against one recipe; results in spec order."""
        recipe = recipe or self.recipe
        if recipe is None:
            raise ValueError("no recipe: pass one here or to the constructor")
        return self.execute([CampaignTask(spec, recipe) for spec in specs])

    def execute(self, tasks: Sequence[CampaignTask]) -> list:
        """Execute arbitrary (spec, recipe) tasks; results in task order.

        Under ``on_failure="degrade"`` the returned list carries ``None``
        at quarantined-task indexes; consult ``stats.accounting()`` for
        the explicit completed/failed breakdown.
        """
        for task in tasks:
            if not isinstance(task.spec, CampaignSpec):
                raise TypeError(f"task spec must be a CampaignSpec, got {type(task.spec).__name__}")
        self.stats = ExecutionStats(tasks=len(tasks), parallel=self.workers > 1)
        started = clock_s()
        aborted = False
        installed_chaos = False
        if self.chaos is not None and chaos_mod.active() is None:
            chaos_mod.install(self.chaos)
            installed_chaos = True
        try:
            if not tasks:
                return []
            obs.publish("executor.start", tasks=len(tasks), workers=self.workers)
            results: list[Any] = [None] * len(tasks)
            keys, pending = self._partition(tasks, results)
            if not pending:
                return results
            if self.workers == 1:
                self._execute_sequential(tasks, pending, results, keys)
                return results
            try:
                self._execute_parallel(tasks, pending, results, keys)
            except _PoolUnavailable as exc:
                _LOGGER.warning("worker pool unavailable (%s); falling back to sequential", exc)
                self.stats.parallel = False
                failed = {failure.index for failure in self.stats.failed_tasks}
                remaining = [
                    index for index in pending if results[index] is None and index not in failed
                ]
                self._execute_sequential(tasks, remaining, results, keys)
            return results
        except BaseException:
            aborted = True
            raise
        finally:
            self.stats.duration_s = clock_s() - started
            self._flush_stats()
            # postmortem before chaos uninstalls, so the bundle names the plan
            recorder = obs.current().recorder
            if recorder is not None and (aborted or self.stats.failed):
                reason = "executor.abort" if aborted else "executor.degraded"
                recorder.maybe_autodump(reason, stats=self.stats.to_dict())
            if installed_chaos:
                chaos_mod.uninstall()

    def _flush_stats(self) -> None:
        """Fold executor bookkeeping into the metrics registry and progress stream."""
        stats = self.stats
        registry = obs.metrics()
        if registry is not None:
            registry.inc("executor.tasks", stats.tasks)
            # the aggregate is always the exact sum of the per-cause counters
            registry.inc("executor.retries", stats.retries)
            for cause, count in stats.retries_by_cause.items():
                registry.inc(f"executor.retries.{cause}", count)
            registry.inc("executor.timeouts", stats.timeouts)
            registry.inc("executor.crashes", stats.crashes)
            registry.inc("executor.journal_hits", stats.journal_hits)
            registry.inc("executor.journal_errors", stats.journal_errors)
            registry.inc("executor.heartbeats", stats.heartbeats)
            registry.inc("executor.failed", stats.failed)
            registry.inc("executor.pipe_drops", stats.pipe_drops)
            registry.inc("executor.pipe_duplicates", stats.pipe_duplicates)
            registry.observe("executor.duration_s", stats.duration_s)
            if stats.worst_heartbeat_gap_s:
                registry.set_gauge("executor.worst_heartbeat_gap_s", stats.worst_heartbeat_gap_s)
        obs.publish(
            "executor.complete",
            tasks=stats.tasks,
            duration_s=stats.duration_s,
            parallel=stats.parallel,
            journal_hits=stats.journal_hits,
            retries=stats.retries,
            retries_by_cause=dict(stats.retries_by_cause),
            timeouts=stats.timeouts,
            crashes=stats.crashes,
            heartbeats=stats.heartbeats,
            worst_heartbeat_gap_s=stats.worst_heartbeat_gap_s,
            failed=stats.failed,
        )

    # ------------------------------------------------------------------ #
    # journal plumbing
    # ------------------------------------------------------------------ #

    def _partition(self, tasks: Sequence[CampaignTask], results: list) -> tuple[list, list[int]]:
        """Split tasks into journal hits (filled into ``results``) and pending."""
        if self.journal is None:
            return [None] * len(tasks), list(range(len(tasks)))
        from repro.exec.journal import journal_key

        keys = [journal_key(task) for task in tasks]
        pending: list[int] = []
        for index, key in enumerate(keys):
            cached = self.journal.get(key)
            if cached is not None:
                results[index] = cached
                self.stats.journal_hits += 1
                # journaled results never re-run, so their stamped digest is
                # the only way their work reaches the driver's totals —
                # same for their estimator contribution
                obs.merge_campaign_metrics(cached)
                publish_outcome(
                    index, cached,
                    spec=tasks[index].spec, target=tasks[index].recipe.target_spec,
                )
            else:
                pending.append(index)
        if self.stats.journal_hits:
            _LOGGER.info(
                "journal: %d/%d task(s) already complete; running %d",
                self.stats.journal_hits, len(tasks), len(pending),
            )
        return keys, pending

    def _record(self, key, outcome) -> None:
        """Durably journal one completed task (driver process, fsync'd).

        A failed append (full disk, dying device) aborts the run under
        ``on_failure="abort"`` — losing durability silently would betray
        the resume contract — and is tolerated with accounting under
        ``"degrade"``: the task's *result* is intact, only its journal
        record is missing, so a later resume re-runs it bit-identically.
        """
        if self.journal is None or key is None:
            return
        from repro.exec.journal import JournalWriteError

        try:
            self.journal.record(key, outcome)
        except (JournalWriteError, OSError) as exc:
            self.stats.journal_errors += 1
            if self.on_failure == "abort":
                raise CampaignExecutionError(
                    f"journal append failed for task {key!r}: {exc}"
                ) from exc
            _LOGGER.warning(
                "journal append failed for task %r (%s); continuing degraded — "
                "this task will re-run on resume", key, exc,
            )

    # ------------------------------------------------------------------ #
    # in-process execution (workers=1, or no pool)
    # ------------------------------------------------------------------ #

    def _execute_sequential(
        self,
        tasks: Sequence[CampaignTask],
        pending: Sequence[int],
        results: list,
        keys: Sequence,
    ) -> None:
        # One injector per distinct recipe (a sweep's points share one), and
        # one golden model and trace per distinct golden model (a layerwise
        # run's per-layer recipes share one): the fault-free forward and the
        # chain verification run once per golden model.
        from repro.core.prefix import GoldenTrace

        goldens: dict[tuple, tuple[Any, GoldenTrace]] = {}
        injectors: dict[int, Any] = {}
        for index in pending:
            task = tasks[index]
            recipe = task.recipe
            try:
                if id(recipe) not in injectors:
                    golden = recipe.golden_key()
                    if golden not in goldens:
                        model = recipe.golden_model()
                        goldens[golden] = model, GoldenTrace(model, recipe.inputs)
                    model, trace = goldens[golden]
                    injectors[id(recipe)] = recipe.build(
                        model, trace if trace.matches(model, recipe.inputs) else None
                    )
                # injector.run merges the campaign digest in-process here, so
                # this path must not merge again (that would double-count)
                outcome = injectors[id(recipe)].run(task.spec)
            except Exception as exc:
                # in-process failures are deterministic: retrying cannot help
                if self.on_failure == "abort":
                    raise
                self._quarantine(index, keys[index], f"campaign raised: {exc!r}", 1, "error")
                continue
            results[index] = outcome
            self._record(keys[index], outcome)
            obs.publish("executor.task_done", task=index, campaign=task.spec.kind, p=task.spec.p)
            publish_outcome(index, outcome, spec=task.spec, target=task.recipe.target_spec)

    # ------------------------------------------------------------------ #
    # process-per-task scheduler
    # ------------------------------------------------------------------ #

    def _context(self):
        if self._start_method is not None:
            return multiprocessing.get_context(self._start_method)
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _spawn(self, ctx, task: CampaignTask, obs_config, index: int, attempt: int) -> _Running:
        parent, child = ctx.Pipe(duplex=False)
        plan = self.chaos if self.chaos is not None else chaos_mod.active_plan()
        chaos_ctx = None if plan is None else (plan, index, attempt)
        process = ctx.Process(
            target=_worker_main, args=(task, child, obs_config, chaos_ctx), daemon=True
        )
        try:
            process.start()
        except (OSError, PermissionError, ValueError) as exc:
            parent.close()
            child.close()
            raise _PoolUnavailable(str(exc)) from exc
        child.close()  # the worker holds the write end now
        now = clock_s()
        deadline = None if self.timeout_s is None else now + self.timeout_s
        return _Running(
            process=process, connection=parent, deadline=deadline, started=now, last_beat=now
        )

    def _execute_parallel(
        self,
        tasks: Sequence[CampaignTask],
        pending_indexes: Sequence[int],
        results: list,
        keys: Sequence,
    ) -> None:
        ctx = self._context()
        obs_config = obs.current().worker_config()
        attempts = {index: 0 for index in pending_indexes}
        # pending entries are (index, not-before time): retries with backoff
        # re-enter the queue with a future ready time and wait their turn
        pending: deque[tuple[int, float]] = deque((index, 0.0) for index in pending_indexes)
        running: dict[int, _Running] = {}
        try:
            while pending or running:
                now = clock_s()
                for _ in range(len(pending)):
                    if len(running) >= self.workers:
                        break
                    index, ready = pending.popleft()
                    if ready > now:
                        pending.append((index, ready))  # not due yet; rotate
                        continue
                    attempts[index] += 1
                    running[index] = self._spawn(ctx, tasks[index], obs_config, index, attempts[index])
                progressed = self._poll(tasks, results, keys, attempts, pending, running)
                if not progressed and (running or pending):
                    time.sleep(0.005)
        finally:
            for entry in running.values():
                entry.process.terminate()
                entry.process.join()
                entry.connection.close()

    def _poll(self, tasks, results, keys, attempts, pending, running) -> bool:
        """One scheduler pass; returns whether any task finished or failed."""
        progressed = False
        for index in list(running):
            entry = running[index]
            if entry.connection.poll(0):
                self.stats.note_gap(clock_s() - entry.last_beat)
                try:
                    with obs.span("ipc.recv"):
                        message = entry.connection.recv()
                    status, payload = message[0], message[1]
                    report = message[2] if len(message) > 2 else None
                except EOFError:  # died mid-send
                    status, payload, report = None, None, None
                self._reap(entry)
                del running[index]
                progressed = True
                if status == "ok" and chaos_mod.should_fire(
                    "pipe.drop", key=(index, attempts[index])
                ):
                    # the result evaporated in transit; indistinguishable
                    # from a crash at the driver, so it retries as one
                    self.stats.pipe_drops += 1
                    self.stats.crashes += 1
                    self._retry_or_fail(
                        tasks, keys, attempts, pending, index,
                        "result message dropped in transit", cause="chaos",
                    )
                elif status == "ok":
                    self._deliver(tasks, results, keys, index, payload, report)
                    if chaos_mod.should_fire("pipe.duplicate", key=(index, attempts[index])):
                        # re-deliver the same message: the completed-slot
                        # guard must drop it without double-counting
                        self._deliver(tasks, results, keys, index, payload, report)
                elif status == "error":
                    if self.on_failure == "degrade":
                        # deterministic failure: retrying cannot help
                        self._quarantine(
                            index, keys[index], f"failed in worker: {payload!r}",
                            attempts[index], "error",
                        )
                    else:
                        raise CampaignExecutionError(
                            f"campaign {tasks[index].spec!r} failed in worker: {payload!r}"
                        ) from payload
                else:
                    self.stats.crashes += 1
                    self._retry_or_fail(
                        tasks, keys, attempts, pending, index, "crashed mid-result", cause="crash"
                    )
            elif not entry.process.is_alive():
                self.stats.note_gap(clock_s() - entry.last_beat)
                exitcode = entry.process.exitcode
                self._reap(entry)
                del running[index]
                progressed = True
                self.stats.crashes += 1
                self._retry_or_fail(
                    tasks, keys, attempts, pending, index,
                    f"worker died (exit code {exitcode})", cause="crash",
                )
            elif entry.deadline is not None and clock_s() > entry.deadline:
                self.stats.note_gap(clock_s() - entry.last_beat)
                entry.process.terminate()
                self._reap(entry)
                del running[index]
                progressed = True
                self.stats.timeouts += 1
                self._retry_or_fail(
                    tasks, keys, attempts, pending, index,
                    f"timed out after {self.timeout_s:g}s", cause="timeout",
                )
            else:
                self._maybe_beat(index, entry, attempts[index])
        return progressed

    def _deliver(self, tasks, results, keys, index: int, payload, report) -> None:
        """Accept one completed result — exactly once.

        A duplicated result-pipe message (chaos, or a future distributed
        transport that redelivers) lands here for an already-filled slot;
        it is dropped before journaling or metrics so nothing
        double-counts. The journal's own ``record`` is idempotent too —
        defence in depth.
        """
        if results[index] is not None:
            self.stats.pipe_duplicates += 1
            _LOGGER.warning("duplicate result for task %d dropped (already delivered)", index)
            return
        results[index] = payload
        # journal from the driver: a later worker SIGKILL can
        # never take this completed task down with it
        self._record(keys[index], payload)
        self._absorb(tasks[index], index, payload, report)

    def _absorb(self, task: CampaignTask, index: int, payload, report) -> None:
        """Reduce one worker result's observations into the driver.

        The digest stamped on the result carries the worker's metrics
        (merged here exactly once — the worker's own registry dies with
        its process); worker trace events merge into the driver tracer,
        already pid-tagged so Perfetto shows them on worker tracks.
        """
        obs.merge_campaign_metrics(payload)
        driver_tracer = obs.tracer()
        if report and report.get("trace") and driver_tracer is not None:
            driver_tracer.merge(report["trace"])
        if report and report.get("profile"):
            driver_profiler = obs.profiler()
            if driver_profiler is not None:
                driver_profiler.merge(report["profile"])
        obs.publish("executor.task_done", task=index, campaign=task.spec.kind, p=task.spec.p)
        publish_outcome(index, payload, spec=task.spec, target=task.recipe.target_spec)

    def _maybe_beat(self, index: int, entry: _Running, attempt: int) -> None:
        """Emit a liveness beat for a still-running worker when one is due."""
        if self.heartbeat_s is None:
            return
        now = clock_s()
        if now - entry.last_beat < self.heartbeat_s:
            return
        self.stats.note_gap(now - entry.last_beat)
        entry.last_beat = now
        self.stats.heartbeats += 1
        elapsed = now - entry.started
        _LOGGER.info(
            "task %d still running in pid %s after %.1fs (attempt %d)",
            index, entry.process.pid, elapsed, attempt,
        )
        obs.publish(
            "executor.heartbeat",
            task=index,
            pid=entry.process.pid,
            elapsed_s=elapsed,
            attempt=attempt,
        )

    @staticmethod
    def _reap(entry: _Running) -> None:
        entry.process.join()
        entry.connection.close()

    def _retry_or_fail(
        self, tasks, keys, attempts, pending, index: int, reason: str, cause: str
    ) -> None:
        """Reschedule a failed attempt with backoff, or give up on a poison task.

        Giving up means :class:`CampaignExecutionError` under
        ``on_failure="abort"`` and quarantine under ``"degrade"``.
        """
        if attempts[index] >= self.max_attempts:
            full_reason = f"{reason}; gave up after {attempts[index]} attempt(s)"
            if self.on_failure == "degrade":
                self._quarantine(index, keys[index], full_reason, attempts[index], cause)
                return
            raise CampaignExecutionError(f"campaign {tasks[index].spec!r} {full_reason}")
        self.stats.count_retry(cause)
        delay = self._backoff_delay(index, attempts[index])
        obs.publish(
            "executor.retry", task=index, cause=cause, attempt=attempts[index], backoff_s=delay
        )
        _LOGGER.warning(
            "campaign task %d %s; retrying (attempt %d/%d%s)",
            index, reason, attempts[index] + 1, self.max_attempts,
            f", backoff {delay:.3f}s" if delay else "",
        )
        pending.append((index, clock_s() + delay))

    def _backoff_delay(self, index: int, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5, 1.5).

        The jitter is a pure hash of ``(task index, attempt)`` — no RNG
        stream is consumed (bit-identity), yet retried tasks de-sync
        instead of thundering back onto the pool in lockstep.
        """
        if self.backoff_s <= 0:
            return 0.0
        jitter = 0.5 + chaos_mod.chaos_uniform(0, "retry.backoff", (index, attempt))
        return self.backoff_s * (2.0 ** (attempt - 1)) * jitter

    def _quarantine(self, index: int, key, reason: str, attempts: int, cause: str) -> None:
        """Record one poison task into ``failed_tasks`` and keep going.

        The result slot stays ``None``; ``stats.accounting()`` names the
        task explicitly, so a degraded result can never silently shrink
        the task space.
        """
        failure = FailedTask(index=index, key=key, reason=reason, attempts=attempts, cause=cause)
        self.stats.failed_tasks.append(failure)
        _LOGGER.error("campaign task %d quarantined (%s): %s", index, cause, reason)
        obs.publish("executor.task_failed", task=index, cause=cause, attempts=attempts)
        registry = obs.metrics()
        if registry is not None:
            registry.inc("executor.task_failed")


class _PoolUnavailable(RuntimeError):
    """Process creation failed; the caller should fall back to sequential."""

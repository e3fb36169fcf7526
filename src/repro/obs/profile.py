"""Deterministic, opt-in profiling: per-op counters, per-layer time, phases.

The :class:`Profiler` answers the question PR 3's tracer cannot: *where*
inside a 4-second worker span the time went — 70% ``Conv2d`` forward versus
bit-flip application versus journal fsync. It observes three granularities:

* **per-op counters** — every tensor-engine operation that goes through
  :meth:`repro.tensor.tensor.Tensor._make` records its call count, an
  estimated FLOP cost (exact for matmul/conv2d, elementwise-sized
  otherwise), output bytes allocated, and an *estimated* self time (the
  clock delta since the previous op record inside the same profiled
  region — numpy compute dominates that window, so the estimate tracks
  real kernel cost closely while costing two clock reads);
* **per-layer time** — :func:`profile_module` instruments a
  :class:`~repro.nn.module.Module` tree with forward pre/post hooks and
  maintains a layer stack, yielding cumulative (inclusive of children)
  and self (exclusive) forward time per dotted layer name, plus backward
  self time attributed through the autodiff tape (ops record which layer
  was live when they were created; their wrapped backward closures bill
  that layer);
* **phases** — coarse campaign accounting (``forward.eval`` vs
  ``flip.apply`` vs ``journal.fsync`` vs ``ipc.recv``) via the
  :meth:`Profiler.phase` context manager, nested into a dotted stack.

Everything is strictly *passive*: the profiler only reads clocks and
counts — it never touches an RNG stream, never replaces a hook value, and
never changes control flow — so a campaign run under profiling is
bit-identical to a bare one. When no profiler is attached the hot-path
hook in the tensor engine is a single ``is None`` check.

This module also owns the library's **canonical clock**: every duration in
repro comes from :func:`clock_s` / :func:`clock_ns` (``time.perf_counter``
— monotonic, highest resolution, comparable across fork-started workers on
one host); wall-clock time is reserved for *display* timestamps via
:func:`wall_display`. ``repro.utils.timing.Timer`` and the trace clock are
thin shims over these.

Reduction follows the PR 3 metrics pattern: :meth:`Profiler.snapshot`
freezes everything into a picklable JSON-clean dict, :meth:`Profiler.merge`
folds worker snapshots back into the driver, and
:meth:`Profiler.publish_to` projects totals into a
:class:`~repro.obs.metrics.MetricsRegistry` so ``--metrics`` and
``--profile`` compose.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable

__all__ = [
    "clock_s",
    "clock_ns",
    "wall_display",
    "OpStats",
    "LayerStats",
    "PhaseStats",
    "Profiler",
    "profile_module",
]


# ---------------------------------------------------------------------- #
# the canonical clock
# ---------------------------------------------------------------------- #


def clock_s() -> float:
    """Monotonic seconds for measuring durations (``time.perf_counter``).

    The single clock every repro duration is measured with. Monotonic
    (never jumps back on NTP adjustments) and CLOCK_MONOTONIC-based on
    Linux, so readings are comparable across fork-started worker
    processes on the same host.
    """
    return time.perf_counter()


def clock_ns() -> int:
    """Monotonic nanoseconds (``time.perf_counter_ns``) for fine timers."""
    return time.perf_counter_ns()


def wall_display() -> str:
    """ISO-8601 UTC wall-clock timestamp, for *display/metadata only*.

    Never subtract two of these to get a duration — use :func:`clock_s`.
    """
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------- #
# per-granularity accumulators
# ---------------------------------------------------------------------- #


@dataclass
class OpStats:
    """Accumulated counters for one tensor-engine op kind."""

    calls: int = 0
    flops: float = 0.0
    bytes: int = 0
    #: estimated self seconds (clock deltas between consecutive op records)
    self_s_est: float = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "flops": self.flops,
            "bytes": self.bytes,
            "self_s_est": self.self_s_est,
        }


@dataclass
class LayerStats:
    """Forward/backward timing for one dotted layer name."""

    calls: int = 0
    #: forward seconds inclusive of child modules
    forward_cum_s: float = 0.0
    #: forward seconds exclusive of child modules
    forward_self_s: float = 0.0
    #: backward seconds billed through the tape (self by construction)
    backward_self_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "forward_cum_s": self.forward_cum_s,
            "forward_self_s": self.forward_self_s,
            "backward_self_s": self.backward_self_s,
        }


@dataclass
class PhaseStats:
    """Cumulative/self time for one dotted phase path."""

    count: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "cum_s": self.cum_s, "self_s": self.self_s}


@dataclass
class _Frame:
    """One live stack entry (phase or layer) being timed."""

    name: str
    path: str
    started: float
    child_s: float = 0.0


# FLOP estimators. matmul/conv2d get exact multiply-add counts from parent
# shapes; everything else is billed one flop per output element, which keeps
# the hot-spot ordering honest without per-op bespoke formulas.
def _estimate_flops(op: str, out_data, parents: tuple) -> float:
    size = float(out_data.size)
    if op == "matmul" and len(parents) >= 2:
        inner = parents[0].data.shape[-1] if parents[0].data.ndim else 1
        return 2.0 * size * float(inner)
    if op == "conv2d" and len(parents) >= 2:
        weight = parents[1].data  # (out_c, in_c, kh, kw)
        if weight.ndim == 4:
            return 2.0 * size * float(weight[0].size)
    return size


class Profiler:
    """Passive per-op / per-layer / per-phase profiler.

    A :class:`~repro.obs.Session` owns one (``Session(profiler=True)``);
    worker processes get a fresh one through
    :class:`~repro.obs.WorkerObsConfig` and their snapshots merge back
    into the driver's, so a parallel campaign's profile covers the whole
    fleet.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self.ops: dict[str, OpStats] = {}
        self.layers: dict[str, LayerStats] = {}
        self.phases: dict[str, PhaseStats] = {}
        #: shared stack of live phase frames (dotted paths)
        self._phase_stack: list[_Frame] = []
        #: shared stack of live layer frames (module call nesting)
        self._layer_stack: list[_Frame] = []
        #: clock reading of the previous op record (None = estimator reset)
        self._last_op_ts: float | None = None

    # ------------------------------------------------------------------ #
    # op recording (the tensor-engine hot path)
    # ------------------------------------------------------------------ #

    def record_tensor_op(self, op: str, out_data, parents: tuple, flops: float | None = None) -> None:
        """Record one tensor op: calls, FLOPs, bytes, estimated self time.

        Called from :meth:`Tensor._make` right after the numpy compute, so
        the delta since the previous record approximates this op's kernel
        time. The estimator resets at layer/phase boundaries (and on the
        first op of a region) so inter-op gaps spent outside the tensor
        engine are never billed to an op.
        """
        now = clock_s()
        stats = self.ops.get(op)
        if stats is None:
            stats = self.ops.setdefault(op, OpStats())
        stats.calls += 1
        stats.flops += _estimate_flops(op, out_data, parents) if flops is None else float(flops)
        stats.bytes += int(out_data.nbytes)
        if self._last_op_ts is not None:
            stats.self_s_est += now - self._last_op_ts
        self._last_op_ts = now

    def reset_op_clock(self) -> None:
        """Detach the op self-time estimator from the preceding gap."""
        self._last_op_ts = None

    def wrap_backward(self, op: str, backward_fn: Callable) -> Callable:
        """Time a tape closure, billing the layer live when it was recorded."""
        layer = self._layer_stack[-1].path if self._layer_stack else None

        def timed(grad):
            started = clock_s()
            try:
                return backward_fn(grad)
            finally:
                elapsed = clock_s() - started
                if layer is not None:
                    stats = self.layers.get(layer)
                    if stats is None:
                        stats = self.layers.setdefault(layer, LayerStats())
                    stats.backward_self_s += elapsed

        return timed

    # ------------------------------------------------------------------ #
    # layer timing (driven by profile_module hooks)
    # ------------------------------------------------------------------ #

    def _layer_enter(self, name: str) -> None:
        self.reset_op_clock()
        self._layer_stack.append(_Frame(name=name, path=name, started=clock_s()))

    def _layer_exit(self, name: str) -> None:
        now = clock_s()
        self.reset_op_clock()
        # Unwind to the matching frame; an exception inside a child forward
        # can leave orphans, which are dropped rather than mis-billed.
        while self._layer_stack:
            frame = self._layer_stack.pop()
            if frame.name == name:
                cum = now - frame.started
                stats = self.layers.get(name)
                if stats is None:
                    stats = self.layers.setdefault(name, LayerStats())
                stats.calls += 1
                stats.forward_cum_s += cum
                stats.forward_self_s += max(0.0, cum - frame.child_s)
                if self._layer_stack:
                    self._layer_stack[-1].child_s += cum
                return

    # ------------------------------------------------------------------ #
    # phase accounting
    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time a campaign phase; nested phases form dotted paths.

        >>> profiler = Profiler()
        >>> with profiler.phase("campaign"):
        ...     with profiler.phase("forward.eval"):
        ...         pass
        >>> sorted(profiler.phases)
        ['campaign', 'campaign/forward.eval']
        """
        if not self.enabled:
            yield
            return
        parent = self._phase_stack[-1].path if self._phase_stack else None
        path = f"{parent}/{name}" if parent else name
        frame = _Frame(name=name, path=path, started=clock_s())
        self._phase_stack.append(frame)
        self.reset_op_clock()
        try:
            yield
        finally:
            now = clock_s()
            self.reset_op_clock()
            if self._phase_stack and self._phase_stack[-1] is frame:
                self._phase_stack.pop()
            cum = now - frame.started
            stats = self.phases.get(path)
            if stats is None:
                stats = self.phases.setdefault(path, PhaseStats())
            stats.count += 1
            stats.cum_s += cum
            stats.self_s += max(0.0, cum - frame.child_s)
            if self._phase_stack:
                self._phase_stack[-1].child_s += cum

    # ------------------------------------------------------------------ #
    # reduction
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Freeze into a plain, picklable, JSON-clean dict."""
        with self._lock:
            return {
                "ops": {name: s.as_dict() for name, s in sorted(self.ops.items())},
                "layers": {name: s.as_dict() for name, s in sorted(self.layers.items())},
                "phases": {name: s.as_dict() for name, s in sorted(self.phases.items())},
            }

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in."""
        if not snapshot:
            return
        with self._lock:
            for name, payload in snapshot.get("ops", {}).items():
                stats = self.ops.setdefault(name, OpStats())
                stats.calls += int(payload["calls"])
                stats.flops += float(payload["flops"])
                stats.bytes += int(payload["bytes"])
                stats.self_s_est += float(payload.get("self_s_est", 0.0))
            for name, payload in snapshot.get("layers", {}).items():
                stats = self.layers.setdefault(name, LayerStats())
                stats.calls += int(payload["calls"])
                stats.forward_cum_s += float(payload["forward_cum_s"])
                stats.forward_self_s += float(payload["forward_self_s"])
                stats.backward_self_s += float(payload.get("backward_self_s", 0.0))
            for name, payload in snapshot.get("phases", {}).items():
                stats = self.phases.setdefault(name, PhaseStats())
                stats.count += int(payload["count"])
                stats.cum_s += float(payload["cum_s"])
                stats.self_s += float(payload["self_s"])

    def publish_to(self, registry) -> None:
        """Project profile totals into a :class:`MetricsRegistry`.

        Counters for op calls/FLOPs/bytes and a histogram of per-layer
        forward self time, so ``--metrics`` and ``--profile`` compose
        instead of duplicating accounting.
        """
        for name, stats in sorted(self.ops.items()):
            registry.inc(f"profile.op.{name}.calls", stats.calls)
            registry.inc(f"profile.op.{name}.flops", int(stats.flops))
            registry.inc(f"profile.op.{name}.bytes", stats.bytes)
        for _, stats in sorted(self.layers.items()):
            if stats.calls:
                registry.observe("profile.layer.forward_s", stats.forward_self_s / stats.calls)
        for name, stats in sorted(self.phases.items()):
            registry.observe("profile.phase.cum_s", stats.cum_s)
            registry.inc(f"profile.phase.{name}.count", stats.count)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    def hotspot_rows(self, limit: int | None = None) -> list[dict]:
        """Sorted hot-spot rows mixing phases, layers, and ops.

        Every row carries ``kind``/``name``/``self_s``/``cum_s``; layers
        add calls and backward time, ops add calls/GFLOP/MB (their times
        are delta estimates). Sorted by self time, descending.
        """
        rows: list[dict] = []
        for name, stats in self.phases.items():
            rows.append(
                {
                    "kind": "phase",
                    "name": name,
                    "calls": stats.count,
                    "self_s": stats.self_s,
                    "cum_s": stats.cum_s,
                }
            )
        for name, stats in self.layers.items():
            rows.append(
                {
                    "kind": "layer",
                    "name": name,
                    "calls": stats.calls,
                    "self_s": stats.forward_self_s,
                    "cum_s": stats.forward_cum_s,
                    "backward_s": stats.backward_self_s,
                }
            )
        for name, stats in self.ops.items():
            rows.append(
                {
                    "kind": "op",
                    "name": name,
                    "calls": stats.calls,
                    "self_s": stats.self_s_est,
                    "cum_s": stats.self_s_est,
                    "gflop": stats.flops / 1e9,
                    "mbytes": stats.bytes / 1e6,
                }
            )
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows[:limit] if limit is not None else rows

    def hotspot_table(self, limit: int = 30) -> str:
        """The sorted hot-spot table as rendered text."""
        rows = self.hotspot_rows(limit)
        if not rows:
            return "profile: no samples recorded"
        header = f"{'kind':<6} {'name':<44} {'calls':>8} {'self_s':>10} {'cum_s':>10} {'detail':<24}"
        lines = [header, "-" * len(header)]
        for row in rows:
            if row["kind"] == "op":
                detail = f"{row['gflop']:.3f} GFLOP, {row['mbytes']:.1f} MB"
            elif row["kind"] == "layer":
                detail = f"backward {row['backward_s']:.4f}s"
            else:
                detail = ""
            name = row["name"]
            if len(name) > 44:
                name = "…" + name[-43:]
            lines.append(
                f"{row['kind']:<6} {name:<44} {row['calls']:>8d} "
                f"{row['self_s']:>10.4f} {row['cum_s']:>10.4f} {detail:<24}"
            )
        return "\n".join(lines)

    def collapsed_stacks(self) -> list[str]:
        """Brendan-Gregg collapsed stacks (speedscope/flamegraph loadable).

        One line per leaf: ``frame;frame;frame <microseconds>``. Phase
        paths become stacks directly; layer self time is appended under a
        ``layers`` root (dotted module paths become frames), op estimates
        under an ``ops`` root.
        """
        lines: list[str] = []
        for path, stats in sorted(self.phases.items()):
            micros = int(round(stats.self_s * 1e6))
            if micros > 0:
                lines.append(f"{path.replace('/', ';')} {micros}")
        for name, stats in sorted(self.layers.items()):
            micros = int(round(stats.forward_self_s * 1e6))
            if micros > 0:
                frames = ";".join(["layers"] + name.split("."))
                lines.append(f"{frames} {micros}")
            back = int(round(stats.backward_self_s * 1e6))
            if back > 0:
                frames = ";".join(["layers"] + name.split(".") + ["backward"])
                lines.append(f"{frames} {back}")
        for name, stats in sorted(self.ops.items()):
            micros = int(round(stats.self_s_est * 1e6))
            if micros > 0:
                lines.append(f"ops;{name} {micros}")
        return lines

    def save_collapsed(self, path: str) -> None:
        """Atomically write the collapsed-stack file (open in speedscope)."""
        from repro.utils.persist import atomic_write_bytes

        payload = "\n".join(self.collapsed_stacks())
        atomic_write_bytes(path, (payload + "\n").encode("utf-8") if payload else b"")

    def __repr__(self) -> str:
        return (
            f"Profiler(enabled={self.enabled}, ops={len(self.ops)}, "
            f"layers={len(self.layers)}, phases={len(self.phases)})"
        )


# ---------------------------------------------------------------------- #
# the hot-path mirror
# ---------------------------------------------------------------------- #

#: the current session's profiler, read by the tensor-engine hot path
#: without a call; ``None`` = off. Written only when a
#: :class:`~repro.obs.Session` is installed — do not set directly.
ACTIVE: Profiler | None = None


# ---------------------------------------------------------------------- #
# module instrumentation
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def profile_module(model, profiler: Profiler, names: Iterable[tuple[str, object]] | None = None):
    """Attach per-layer timing hooks to every submodule of ``model``.

    Hooks are passive (they return ``None``, never replacing inputs or
    outputs) and are removed on exit even when the forward pass raises.
    ``names`` overrides the instrumented set (default: every named
    submodule, root excluded — the root's time is the campaign phase).
    """
    if names is None:
        names = [(name, module) for name, module in model.named_modules() if name]
    handles = []
    try:
        for name, module in names:

            def pre_hook(mod, inputs, _name=name):
                profiler._layer_enter(_name)

            def post_hook(mod, inputs, output, _name=name):
                profiler._layer_exit(_name)

            handles.append(module.register_forward_pre_hook(pre_hook))
            handles.append(module.register_forward_hook(post_hook))
        yield profiler
    finally:
        for handle in handles:
            handle.remove()

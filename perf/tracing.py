"""Outside-in span tracing for the benchmark's traced runs.

Each program layer is timed from the outside: :class:`Instrumentation`
replaces a class attribute or module binding (see :func:`layer_targets`)
with a wrapper that records a :class:`Span` around the original call, in
the benchmark process only, and puts the original back on
:meth:`Instrumentation.remove`. A target that no longer resolves — a class
or function renamed by a refactor — is reported ``absent`` instead of
failing the run.

Spans are kept in memory with one stack per thread, so a scrape served on
the status server's thread never nests under the campaign running on the
main thread. A layer's self time is its span's duration minus the time
its child spans cover (:func:`self_times`). :func:`chrome_trace` writes the
spans as a Chrome-trace document (open in Perfetto or chrome://tracing).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "Target",
    "Instrumentation",
    "FlopCounter",
    "layer_targets",
    "self_times",
    "layer_totals",
    "chrome_trace",
]


@dataclass(eq=False)
class Span:
    """One timed call: name, interval, thread, causing span and pass id."""

    name: str
    start: float
    end: float = 0.0
    tid: int = 0
    parent: "Span | None" = None
    pass_id: object = None
    args: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        #: stamped on every span opened from now on (a pass index or a label)
        self.pass_id: object = None
        self._clock = clock
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, args: dict | None = None) -> Span:
        stack = self._stack()
        span = Span(
            name,
            self._clock(),
            tid=threading.get_native_id(),
            parent=stack[-1] if stack else None,
            pass_id=self.pass_id,
            args=args or {},
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the time its child spans cover.

    Children are the spans whose ``parent`` is the span; a per-thread
    stack makes every child a same-thread sub-interval of its parent, so
    their durations add up to the covered time.
    """
    covered = {id(span): 0.0 for span in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in covered:
            covered[id(span.parent)] += span.end - span.start
    return [span.end - span.start - covered[id(span)] for span in spans]


def layer_totals(spans: list[Span], keep: Callable[[Span], bool] = lambda span: True) -> dict[str, dict]:
    """Sum calls, self time, inclusive time and span counters per span name.

    Self time is computed over *all* spans before ``keep`` selects which
    ones to sum, so filtering out a parent never inflates a child.
    """
    totals: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if not keep(span):
            continue
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        if span.args.get("phase") != "exit":
            entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span.end - span.start
        for key, value in span.args.items():
            if isinstance(value, (int, float)) and key != "start":
                entry[key] = entry.get(key, 0) + value
    return totals


def chrome_trace(spans: list[Span], pid: int, metadata: dict | None = None) -> dict:
    """Spans as a Chrome-trace document (complete ``X`` events, microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    ids = {id(span): index for index, span in enumerate(spans)}
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": pid,
            "tid": span.tid,
            "args": {
                "id": index,
                "parent": ids.get(id(span.parent)),
                "pass": span.pass_id,
                **span.args,
            },
        }
        for index, span in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata or {}}


# ---------------------------------------------------------------------- #
# wrapping program layers
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Target:
    """One layer boundary: span name and the ``module:Attr.attr`` to wrap.

    ``context`` marks a callable that returns a context manager: its
    ``__enter__`` and ``__exit__`` are timed (one call, two spans).
    ``args`` derives span counters from the call's ``(args, kwargs)``.
    """

    name: str
    path: str
    context: bool = False
    args: Callable[[tuple, dict], dict] | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class FlopCounter:
    """FLOPs of a faulted forward, from the clean layer shapes of each chain step.

    For every step of the model's forward chain, counts the multiply-adds
    (two FLOPs each) of its Conv2d and Dense layers on one clean forward
    of the evaluation batch. A ``run_segments`` call then costs
    ``rows × Σ steps[start:]``. Tables are cached per model and batch size.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], tuple[object, list[float]]] = {}

    def segment_args(self, args: tuple, kwargs: dict) -> dict:
        evaluator = args[0]
        configurations = _arg(args, kwargs, 1, "configurations")
        start = _arg(args, kwargs, 3, "start")
        rows = len(configurations)
        per_step = self.table(evaluator.injector.model, evaluator.injector.inputs)
        return {"rows": rows, "start": start, "flops": rows * float(sum(per_step[start:]))}

    def table(self, model, inputs: np.ndarray) -> list[float]:
        key = (id(model), len(inputs))
        cached = self._tables.get(key)
        if cached is not None and cached[0] is model:
            return cached[1]
        from repro.core.prefix import forward_chain
        from repro.nn import Conv2d, Dense
        from repro.tensor.tensor import Tensor, no_grad

        steps = forward_chain(model) or []
        flops = [0.0] * len(steps)
        current = [0]

        def count(module, _inputs, output):
            per_output = module.weight.data[0].size if isinstance(module, Conv2d) else module.weight.data.shape[0]
            flops[current[0]] += 2.0 * output.data.size * per_output

        handles = [
            module.register_forward_hook(count)
            for _, module in model.named_modules()
            if isinstance(module, (Conv2d, Dense))
        ]
        try:
            with no_grad(), np.errstate(all="ignore"):
                x = Tensor(np.asarray(inputs))
                for index, step in enumerate(steps):
                    current[0] = index
                    x = step(x)
        finally:
            for handle in handles:
                handle.remove()
        self._tables[key] = (model, flops)
        return flops


def _len_arg(index: int, name: str, key: str) -> Callable[[tuple, dict], dict]:
    return lambda args, kwargs: {key: len(_arg(args, kwargs, index, name))}


def layer_targets(flops: FlopCounter) -> tuple[Target, ...]:
    """The layer boundaries a traced run wraps, in program-layer order."""
    return (
        Target("faults.sample", "repro.faults.configuration:FaultConfiguration.sample"),
        Target("faults.apply", "repro.faults.injection:apply_configuration", context=True),
        Target("batched.init", "repro.core.batched:BatchedNetworkEvaluator.__init__"),
        Target("batched.segments", "repro.core.batched:BatchedNetworkEvaluator.run_segments",
               args=flops.segment_args),
        Target("batched.evaluate", "repro.core.batched:BatchedNetworkEvaluator.evaluate_logits"),
        Target("delta.round", "repro.core.delta:DeltaChainEvaluator.evaluate_round",
               args=_len_arg(2, "candidates", "candidates")),
        Target("prefix.forward", "repro.core.prefix:PrefixCachedForward.forward"),
        Target("injector.init", "repro.core.injector:BayesianFaultInjector.__init__"),
        Target("injector.run", "repro.core.injector:BayesianFaultInjector.run"),
        Target("mcmc.run", "repro.mcmc.metropolis:MetropolisHastingsSampler.run"),
        Target("sweep.run", "repro.core.sweep:ProbabilitySweep.run"),
        Target("layerwise.run", "repro.core.layerwise:LayerwiseCampaign.run"),
        Target("exec.execute", "repro.exec.executor:ParallelCampaignExecutor.execute"),
        Target("journal.record", "repro.exec.journal:CampaignJournal.record"),
        Target("estimator.emit", "repro.obs.estimator:EstimatorTracker.emit"),
        Target("estimator.estimates", "repro.obs.estimator:EstimatorTracker.estimates"),
        Target("estimator.families", "repro.obs.estimator:EstimatorTracker.metric_families"),
        Target("openmetrics.render", "repro.obs.openmetrics:render_openmetrics"),
        Target("server.metrics", "repro.obs.server:StatusServer.metrics_payload"),
        Target("server.estimates", "repro.obs.server:StatusServer.estimates_payload"),
        Target("server.status", "repro.obs.server:StatusServer.status_payload"),
    )


def _resolve(path: str):
    """``(owner, attribute, raw value)`` for ``module:Attr.attr``, or ``None``."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attribute) if isinstance(owner, type) else getattr(owner, attribute, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attribute, raw


class _TimedContext:
    """Context-manager proxy timing the wrapped manager's enter and exit."""

    __slots__ = ("_inner", "_tracer", "_name")

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        span = self._tracer.begin(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._tracer.end(span)

    def __exit__(self, *exc):
        span = self._tracer.begin(self._name, {"phase": "exit"})
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._tracer.end(span)


class Instrumentation:
    """Install span wrappers at layer boundaries; :meth:`remove` restores them.

    A module-level function is replaced at its definition *and* at every
    ``repro`` module that bound it by ``from ... import``, so callers that
    captured the name at import time are timed too.
    """

    def __init__(self, tracer: Tracer, targets: tuple[Target, ...] | None = None) -> None:
        self.tracer = tracer
        self.targets = targets if targets is not None else layer_targets(FlopCounter())
        #: span name → "installed" or "absent"
        self.status: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> dict[str, str]:
        if self._patches:
            raise RuntimeError("instrumentation already installed")
        for target in self.targets:
            self.status[target.name] = "installed" if self._patch(target) else "absent"
        return dict(self.status)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.remove()

    def _patch(self, target: Target) -> bool:
        resolved = _resolve(target.path)
        if resolved is None:
            return False
        owner, attribute, raw = resolved
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, target))
        else:
            replacement = self._wrap(raw, target)
        bindings = [(owner, attribute)]
        if isinstance(owner, types.ModuleType):
            package = owner.__name__.split(".")[0]
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is owner or name.split(".")[0] != package:
                    continue
                bindings.extend(
                    (module, bound) for bound, value in list(vars(module).items()) if value is raw
                )
        for holder, name in bindings:
            self._patches.append((holder, name, raw))
            setattr(holder, name, replacement)
        return True

    def _wrap(self, func: Callable, target: Target) -> Callable:
        tracer, name, derive = self.tracer, target.name, target.args
        if target.context:
            @functools.wraps(func)
            def timed_context(*args, **kwargs):
                return _TimedContext(func(*args, **kwargs), tracer, name)

            return timed_context

        @functools.wraps(func)
        def timed(*args, **kwargs):
            span = tracer.begin(name, derive(args, kwargs) if derive is not None else None)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(span)

        return timed

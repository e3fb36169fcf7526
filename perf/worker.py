"""One workload in a fresh process: set up, run timed passes, check outputs.

    python -m perf.worker --workload fig2-sweep --seed 2019 --seconds 20 \
        [--trace-out PATH] [--setup-only] [--smoke]

Prints ``READY`` as soon as set-up is complete (the parent times set-up
from spawn to that line) and, last, ``RESULT <json>``. Timed passes run
until one more pass of the last pass's length would overrun ``--seconds``.
With ``--trace-out`` the layer wrappers are installed right after import,
spans are written there as Chrome-trace JSON, and the result carries the
per-layer metrics instead of an oracle check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

import numpy as np

from perf import config


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.count(1, 0 if ok else 1, note)

    def check_pass(self, index: int, results: list, campaigns: int, budget: int) -> None:
        """One completed pass: every campaign present, evaluations equal to the budget."""
        missing = campaigns - len(results)
        self.count(campaigns, missing, f"pass {index}: {missing} campaign(s) missing")
        evals = sum(result.total_evaluations for result in results)
        self.check(evals == budget, f"pass {index}: {evals} evaluations, budget {budget}")

    def check_digests(self, digests: list[str]) -> None:
        for index, value in enumerate(digests[1:], start=1):
            self.check(value == digests[0], f"pass {index} digest differs from pass 0")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def _descendants(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            children = [int(child) for child in handle.read().split()]
    except OSError:
        return []
    return children + [grandchild for child in children for grandchild in _descendants(child)]


def kill_tree(process) -> None:
    """SIGKILL a child process and every process it started (Linux ``/proc`` walk).

    The CLI's forked campaign workers would outlive a killed CLI otherwise.
    The caller still waits for ``process``.
    """
    for pid in [*_descendants(process.pid), process.pid]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_passes(run_pass, seconds: float, tracer=None) -> list[tuple[float, object]]:
    """``(wall seconds, outcome)`` per pass; stops when the next pass would overrun.

    A pass that raises ends the loop with ``(None, exception)``.
    """
    passes: list[tuple[float, object]] = []
    started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(passes)
        begun = time.perf_counter()
        try:
            outcome = run_pass(len(passes))
        except Exception as exc:  # noqa: BLE001 — reported as a failed operation
            traceback.print_exc()
            passes.append((None, exc))
            break
        wall = time.perf_counter() - begun
        passes.append((wall, outcome))
        if time.perf_counter() - started + wall > seconds:
            break
    if tracer is not None:
        tracer.pass_id = None
    return passes


def write_trace(path: str, document: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


# ---------------------------------------------------------------------- #
# per-layer metrics of the in-process workloads
# ---------------------------------------------------------------------- #

#: span-derived layers of an in-process run (calls and self time per pass)
CAMPAIGN_SPANS = (
    "faults.sample", "faults.apply", "batched.init", "batched.segments", "batched.evaluate",
    "delta.round", "prefix.forward", "injector.init", "injector.run", "mcmc.run",
    "sweep.run", "layerwise.run",
)


def per_pass(totals: dict, status: dict, passes: int, name: str, field: str) -> float | None:
    """A span total per pass; ``None`` when the span's target did not resolve."""
    if status.get(name) != "installed":
        return None
    return totals.get(name, {}).get(field, 0) / passes


def span_metrics(totals: dict, status: dict, passes: int, names) -> dict:
    """``<span>.calls`` / ``<span>.self_s`` per pass for each span name."""
    return {
        f"{name}.{field}": per_pass(totals, status, passes, name, field)
        for name in names
        for field in ("calls", "self_s")
    }


def campaign_layer_metrics(totals: dict, status: dict, passes: int, results: list) -> dict:
    metrics = span_metrics(totals, status, passes, CAMPAIGN_SPANS)
    metrics["batched.segments.rows"] = per_pass(totals, status, passes, "batched.segments", "rows")
    metrics["delta.round.candidates"] = per_pass(totals, status, passes, "delta.round", "candidates")
    metrics["kernel.flops"] = per_pass(totals, status, passes, "batched.segments", "flops")
    segment_s = per_pass(totals, status, passes, "batched.segments", "total_s")
    metrics["kernel.gflops_per_s"] = metrics["kernel.flops"] / segment_s / 1e9 if segment_s else segment_s
    metrics["faults.flips"] = float(sum(result.chains.total_flips() for result in results))

    counters: dict[str, int] = {}
    for result in results:
        for name, value in ((result.metrics or {}).get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    if "forward_passes" in counters:  # detailed digest counters: a driver registry was attached
        for name in ("delta.cache.hit", "delta.cache.miss", "delta.segments.reused"):
            metrics[name] = float(counters.get(name, 0))
    chained = [result for result in results if result.method != "forward"]
    if chained:
        steps = sum(len(result.chains) * result.chains.steps for result in chained)
        metrics["mcmc.accept_rate"] = sum(result.chains.accepted_total() for result in chained) / steps
        ess = [result.completeness.ess for result in chained if result.completeness is not None]
        metrics["mcmc.ess"] = float(np.mean(ess)) if ess else None
    return metrics


# ---------------------------------------------------------------------- #
# the in-process workloads
# ---------------------------------------------------------------------- #


def run_in_process(args, tracer, status) -> dict | None:
    from perf import workloads
    from perf.tracing import chrome_trace, layer_totals

    sizes = config.SIZES[args.workload]["smoke" if args.smoke else "full"]
    workload = workloads.IN_PROCESS_WORKLOADS[args.workload](args.seed, sizes)
    if tracer is not None:
        tracer.pass_id = "setup"
        if workload.needs_registry:
            import repro.obs as obs

            obs.configure(metrics=True)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return None

    ledger = Ledger()
    passes = timed_passes(lambda _index: workload.run_pass(), args.seconds, tracer)
    walls, digests, results = [], [], []
    for index, (wall, outcome) in enumerate(passes):
        if wall is None:
            ledger.count(workload.campaigns_per_pass, workload.campaigns_per_pass,
                         f"pass {index} raised {outcome!r}")
            continue
        results = outcome
        walls.append(wall)
        digests.append(workloads.digest(results))
        ledger.check_pass(index, results, workload.campaigns_per_pass, workload.budget)
    ledger.check_digests(digests)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": walls,
        "digest": digests[0] if digests else None,
        "import_s": args.import_s,
    }
    if results:
        report["evals"] = sum(result.total_evaluations for result in results)
        report["halfwidth_max"] = workloads.halfwidth_max(results)
    if tracer is None:
        if results:
            note, ok = workload.oracle(results, np.random.default_rng(args.seed))
            ledger.check(ok, f"oracle mismatch: {note}")
            report["oracle"] = note
    else:
        totals = layer_totals(tracer.spans, keep=lambda span: isinstance(span.pass_id, int))
        report["per_layer"] = campaign_layer_metrics(totals, status, max(1, len(walls)), results)
        write_trace(args.trace_out, chrome_trace(
            tracer.spans, os.getpid(), {"workload": args.workload, "seed": args.seed, "status": status},
        ))
    report["rss_peak_mb"] = peak_rss_mb()
    report.update(ledger.to_dict())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.worker")
    parser.add_argument("--workload", required=True, choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    config.use_checkout_source()
    import repro.cli  # noqa: F401 — the program's full import graph
    args.import_s = time.perf_counter() - started

    tracer = status = None
    instrumentation = None
    if args.trace_out:
        from perf.tracing import Instrumentation, Tracer

        tracer = Tracer()
        instrumentation = Instrumentation(tracer)
        status = instrumentation.install()
    try:
        if args.workload == "fig2-monitored":
            from perf import monitored

            report = monitored.run(args)
        else:
            report = run_in_process(args, tracer, status)
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    if report is not None:
        print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

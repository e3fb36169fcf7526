"""fig2-monitored: the Fig. 2 sweep through ``python -m repro sweep``, fully instrumented.

Each pass spawns a fresh CLI process with two workers, a fresh journal,
the status server (port 0; the bound URL is read from the CLI's stderr),
the advisory stopping monitor, ``--metrics`` and ``--profile``. A
closed-loop :class:`Scraper` (one thread, one keep-alive connection, 50 ms
think time) reads ``/metrics``, ``/estimates`` and ``/status`` in turn
until a reply or the journal shows every task complete, validating every
body.

Set-up time is spawn → first ``/healthz`` 200; pass time is ``/healthz``
→ process exit. Campaign outputs are read back from the journal; one
seed-chosen point is recomputed in-process and must match bit for bit.
Traced passes run the same argv through :mod:`perf.shim`.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from perf import config
from perf.worker import kill_tree

ENDPOINTS = ("/metrics", "/estimates", "/status")
THINK_S = 0.05
#: a CLI pass that has not finished by then is killed and counted failed
PASS_TIMEOUT_S = 120.0
_URL = re.compile(r"status server: http://([\w.\-]+):(\d+)")


def sweep_argv(checkpoint: str, seed: int, sizes: dict, workdir: str) -> list[str]:
    """The ``repro sweep`` argv of one pass (the fig2-sweep grid, budget and data)."""
    return [
        "sweep", checkpoint, "--workbench", "mlp-images", "--seed", str(seed),
        "--train-size", str(config.TRAIN_SIZE), "--eval-size", str(sizes["eval_size"]),
        "--p-min", repr(config.P_MIN), "--p-max", repr(config.P_MAX),
        "--points", str(sizes["points"]), "--samples", str(sizes["samples"]),
        "--chains", str(sizes["chains"]), "--workers", str(sizes["workers"]),
        "--journal", os.path.join(workdir, "journal.jsonl"),
        "--serve", "127.0.0.1:0", "--target-halfwidth", "0.05",
        "--metrics", os.path.join(workdir, "metrics.json"),
        "--profile", os.path.join(workdir, "profile.txt"),
    ]


# ---------------------------------------------------------------------- #
# the scraper
# ---------------------------------------------------------------------- #


@dataclass
class ScrapeLog:
    latencies_ms: dict[str, list[float]] = field(default_factory=lambda: {path: [] for path in ENDPOINTS})
    metrics_bytes: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: the stop rule fired: a reply or the journal showed every task complete
    complete: bool = False

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self.latencies_ms.values()) + len(self.failures)


def run_complete(path: str, document: dict, tasks: int) -> bool:
    """Whether a ``/status`` or ``/estimates`` document shows every task done."""
    if path == "/status":
        return document.get("last_complete") is not None
    if path == "/estimates":
        return int(document.get("tasks") or 0) >= tasks
    return False


class Scraper:
    """Closed-loop client: one thread, one keep-alive connection, fixed think time.

    Sends the next request only after the previous reply, round-robin over
    :data:`ENDPOINTS`. Stops for good as soon as a reply shows every task
    complete, ``finished()`` reports the run's outputs complete, or
    ``running()`` turns false — the status server goes down with the run,
    so no request may be aimed at it once the run is over.
    """

    def __init__(self, host: str, port: int, tasks: int, think_s: float = THINK_S,
                 timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.tasks = tasks
        self.think_s = think_s
        self.timeout_s = timeout_s

    def run(self, running: Callable[[], bool], finished: Callable[[], bool] = lambda: False) -> ScrapeLog:
        from repro.obs.openmetrics import OpenMetricsError, validate_openmetrics

        log = ScrapeLog()
        connection = None
        try:
            for path in itertools.cycle(ENDPOINTS):
                if finished():
                    log.complete = True
                    break
                if not running():
                    break
                if connection is None:
                    connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout_s)
                started = time.perf_counter()
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException) as exc:
                    log.failures.append(f"{path}: {exc!r}")
                    connection.close()
                    connection = None
                    time.sleep(self.think_s)
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1e3
                try:
                    if response.status != 200:
                        raise ValueError(f"HTTP {response.status}")
                    text = body.decode("utf-8")
                    if path == "/metrics":
                        validate_openmetrics(text)
                        log.metrics_bytes.append(len(body))
                        document = {}
                    else:
                        document = json.loads(text)
                except (ValueError, OpenMetricsError) as exc:
                    log.failures.append(f"{path}: invalid response: {exc}")
                    continue
                log.latencies_ms[path].append(elapsed_ms)
                if run_complete(path, document, self.tasks):
                    log.complete = True
                    break
                time.sleep(self.think_s)
        finally:
            if connection is not None:
                connection.close()
        return log


# ---------------------------------------------------------------------- #
# one CLI pass
# ---------------------------------------------------------------------- #


class PassError(RuntimeError):
    """A CLI pass that did not come up or did not finish."""


def _wait_for_url(stderr_path: str, process: subprocess.Popen, deadline: float) -> tuple[str, int]:
    while time.perf_counter() < deadline:
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            match = _URL.search(handle.read())
        if match:
            return match.group(1), int(match.group(2))
        if process.poll() is not None:
            raise PassError(f"CLI exited with {process.returncode} before serving")
        time.sleep(0.002)
    raise PassError("status server did not come up")


def _wait_healthy(host: str, port: int, process: subprocess.Popen, deadline: float) -> None:
    while time.perf_counter() < deadline:
        connection = http.client.HTTPConnection(host, port, timeout=1.0)
        try:
            connection.request("GET", "/healthz")
            if connection.getresponse().status == 200:
                return
        except (OSError, http.client.HTTPException):
            pass
        finally:
            connection.close()
        if process.poll() is not None:
            raise PassError(f"CLI exited with {process.returncode} before /healthz")
        time.sleep(0.002)
    raise PassError("/healthz never answered 200")


def journal_records(path: str) -> int:
    """Complete records in a journal being appended to (the header excluded)."""
    try:
        with open(path, "rb") as handle:
            return max(0, handle.read().count(b"\n") - 1)
    except FileNotFoundError:
        return 0


def read_journal(path: str) -> list:
    """Journaled campaign results, ordered by flip probability."""
    from repro.exec import CampaignJournal

    journal = CampaignJournal(path)
    try:
        results = [journal.get(key) for key in journal.keys()]
    finally:
        journal.close()
    return sorted(results, key=lambda result: result.flip_probability)


def profile_seconds(path: str, frame: str) -> float:
    """Self seconds of every collapsed-stack line whose leaf frame is ``frame``."""
    total = 0.0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stack, _, micros = line.rstrip("\n").rpartition(" ")
            if stack.split(";")[-1] == frame:
                total += int(micros) / 1e6
    return total


def run_pass(seed: int, sizes: dict, workdir: str, pass_id: int, trace_out: str | None = None) -> dict:
    """Spawn one CLI pass, scrape it to completion, and read back its artifacts."""
    os.makedirs(workdir, exist_ok=True)
    argv = sweep_argv(str(config.checkpoint_path("mlp-images")), seed, sizes, workdir)
    if trace_out is None:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, "-m", "perf.shim", "--trace-out", trace_out,
                   "--pass-id", str(pass_id), "--", *argv]
    stderr_path = os.path.join(workdir, "stderr.txt")
    with open(os.path.join(workdir, "stdout.txt"), "w") as stdout, open(stderr_path, "w") as stderr:
        spawned = time.perf_counter()
        process = subprocess.Popen(command, cwd=config.ROOT, env=config.child_env(),
                                   stdout=stdout, stderr=stderr)
        try:
            deadline = spawned + PASS_TIMEOUT_S
            host, port = _wait_for_url(stderr_path, process, deadline)
            _wait_healthy(host, port, process, deadline)
            ready = time.perf_counter()
            journal = os.path.join(workdir, "journal.jsonl")
            log = Scraper(host, port, tasks=sizes["points"]).run(
                running=lambda: process.poll() is None,
                finished=lambda: journal_records(journal) >= sizes["points"],
            )
            returncode = process.wait(timeout=max(1.0, deadline - time.perf_counter()))
            exited = time.perf_counter()
        finally:
            if process.poll() is None:
                kill_tree(process)
            process.wait()
    if returncode != 0:
        raise PassError(f"CLI exited with {returncode}; see {stderr_path}")
    with open(os.path.join(workdir, "metrics.json"), encoding="utf-8") as handle:
        counters = json.load(handle).get("counters", {})
    profile = os.path.join(workdir, "profile.txt")
    return {
        "setup_s": ready - spawned,
        "wall_s": exited - ready,
        "results": read_journal(os.path.join(workdir, "journal.jsonl")),
        "scrapes": log,
        "counters": counters,
        "ipc_recv_s": profile_seconds(profile, "ipc.recv"),
        "fsync_s": profile_seconds(profile, "journal.fsync"),
    }


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def layer_metrics(passes: list[dict], traces: list[dict], workers: int) -> dict:
    """Per-layer metrics of traced passes (driver-side spans plus CLI artifacts)."""
    from perf.worker import span_metrics

    count = max(1, len(passes))
    status = traces[0]["otherData"]["status"] if traces else {}
    totals: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for trace in traces:
        for name, entry in trace["otherData"]["totals"].items():
            merged = totals.setdefault(name, {})
            for key, value in entry.items():
                merged[key] = merged.get(key, 0) + value
        for event in trace["traceEvents"]:
            durations.setdefault(event["name"], []).append(event["dur"] / 1e3)
    metrics = span_metrics(totals, status, count, (
        "injector.init", "sweep.run", "exec.execute", "journal.record",
        "estimator.emit", "estimator.estimates", "estimator.families", "openmetrics.render",
    ))
    task_work = sum(result.duration_s for entry in passes for result in entry["results"]) / count
    execute_wall = totals.get("exec.execute", {}).get("total_s", 0.0) / count
    metrics.update({
        "exec.task_work_s": task_work,
        "exec.parallel_efficiency": task_work / (workers * execute_wall) if execute_wall else None,
        "exec.child_cpu_s": sum(trace["otherData"]["child_cpu_s"] for trace in traces) / count,
        "exec.retries": sum(entry["counters"].get("executor.retries", 0) for entry in passes) / count,
        "exec.heartbeats": sum(entry["counters"].get("executor.heartbeats", 0) for entry in passes) / count,
        "exec.ipc_recv_s": sum(entry["ipc_recv_s"] for entry in passes) / count,
        "journal.fsync_s": sum(entry["fsync_s"] for entry in passes) / count,
        "server.metrics.bytes": statistics.median(
            [size for entry in passes for size in entry["scrapes"].metrics_bytes] or [0]
        ),
        "server.scrape_failures": sum(len(entry["scrapes"].failures) for entry in passes) / count,
    })
    for endpoint in ("metrics", "estimates", "status"):
        name = f"server.{endpoint}"
        metrics[f"{name}.p50_ms"] = (
            percentile(durations.get(name, []), 0.5) if status.get(name) == "installed" else None
        )
    metrics.update(scrape_metrics(passes))
    return metrics


def scrape_metrics(passes: list[dict]) -> dict:
    latencies = [
        value for entry in passes for values in entry["scrapes"].latencies_ms.values() for value in values
    ]
    return {
        "scrape_p50_ms": percentile(latencies, 0.5),
        "scrape_p90_ms": percentile(latencies, 0.9),
        "scrape_samples": len(latencies),
    }


def run(args) -> dict:
    """The fig2-monitored workload: timed CLI passes, checks, metrics."""
    from perf import workloads
    from perf.worker import Ledger, peak_rss_mb, timed_passes, write_trace

    sizes = config.SIZES[args.workload]["smoke" if args.smoke else "full"]
    scratch = config.OUT / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traced = bool(args.trace_out)
    budget = sizes["points"] * (sizes["samples"] // sizes["chains"]) * sizes["chains"]
    print("READY", flush=True)
    ledger = Ledger()

    def one_pass(index: int) -> dict:
        workdir = str(scratch / f"pass-{index}")
        trace_out = os.path.join(workdir, "trace.json") if traced else None
        return run_pass(args.seed, sizes, workdir, index, trace_out)

    try:
        passes = timed_passes(one_pass, args.seconds)
        good = []
        for index, (wall, outcome) in enumerate(passes):
            if wall is None:
                ledger.count(sizes["points"], sizes["points"], f"pass {index} failed: {outcome!r}")
                continue
            good.append(outcome)
            ledger.check_pass(index, outcome["results"], sizes["points"], budget)
            log = outcome["scrapes"]
            ledger.count(log.attempted, len(log.failures), f"pass {index} scrapes: {log.failures}")
            ledger.check(log.complete, f"pass {index}: the scraper never saw the run complete")
        digests = [workloads.digest(entry["results"]) for entry in good]
        ledger.check_digests(digests)
        traces = []
        if traced:
            for index in range(len(passes)):
                path = scratch / f"pass-{index}" / "trace.json"
                if path.is_file():
                    with open(path, encoding="utf-8") as handle:
                        traces.append(json.load(handle))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": [entry["setup_s"] for entry in good],
        "wall_s": [entry["wall_s"] for entry in good],
        "digest": digests[0] if digests else None,
        "import_s": args.import_s,
        **scrape_metrics(good),
    }
    if good:
        results = good[0]["results"]
        report["evals"] = sum(result.total_evaluations for result in results)
        report["halfwidth_max"] = workloads.halfwidth_max(results)
        if not traced and len(results) == sizes["points"]:
            rng = np.random.default_rng(args.seed)
            index = int(rng.integers(sizes["points"]))
            note, ok = recompute_point(args.seed, sizes, index, results[index])
            ledger.check(ok, f"oracle mismatch: {note}")
            report["oracle"] = note
    if traced and traces:
        report["per_layer"] = layer_metrics(good, traces, sizes["workers"])
        report["import_s"] = statistics.median(trace["otherData"]["import_s"] for trace in traces)
        # one process per pass: each pass's spans keep their own pid track
        write_trace(args.trace_out, {
            "traceEvents": [event for trace in traces for event in trace["traceEvents"]],
            "displayTimeUnit": "ms",
            "otherData": {"workload": args.workload, "seed": args.seed,
                          "status": traces[0]["otherData"]["status"]},
        })
    report["rss_peak_mb"] = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
    report.update(ledger.to_dict())
    return report


def recompute_point(seed: int, sizes: dict, index: int, journaled) -> tuple[str, bool]:
    """In-process sequential recompute of one sweep point against its journal record."""
    from perf import workloads
    from repro.core import BayesianFaultInjector
    from repro.exec import ForwardSpec
    from repro.faults import TargetSpec

    model, inputs, labels = workloads.load_golden("mlp-images", sizes["eval_size"])
    p = float(workloads.p_grid(sizes["points"])[index])
    local = BayesianFaultInjector(
        model, inputs, labels, spec=TargetSpec.weights_and_biases(), seed=seed
    ).run(ForwardSpec(p=p, samples=sizes["samples"], chains=sizes["chains"]))
    return f"journaled p={p:.3g} recomputed in-process", workloads.identical(local, journaled)

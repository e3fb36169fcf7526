"""Orchestration: run workloads in fresh processes, check them, print metrics.

``measure`` runs one workload. Untraced, it times set-up in fresh
processes (median of three: two set-up-only processes plus the measuring
one; for ``fig2-monitored``, every CLI pass) and reports the end-to-end
metrics of ``BENCHMARK.json``. Traced, it runs an untraced and a traced
process of half the run length each and reports the per-layer metrics,
with the traced-vs-untraced ``wall_s`` as ``trace.overhead_frac``.

Every metric prints as ``workload metric value unit``. A single-workload
run ends with the one-line JSON result; a full run writes
``perf/out/results-<seed>.json`` for ``python -m perf compare``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time

from perf import config, prepare
from perf.worker import kill_tree

#: fresh set-up processes per untraced in-process measurement
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
#: allowance beyond ``--seconds`` for a measuring worker's set-up and oracle
WORKER_SLACK_S = 100.0


class BenchmarkError(RuntimeError):
    """A workload process failed, timed out, or left a metric unmeasured."""


def spawn_worker(arguments: list[str], timeout_s: float) -> tuple[float | None, dict | None]:
    """Run ``perf.worker``; returns (spawn → ``READY`` seconds, result)."""
    command = [sys.executable, "-m", "perf.worker", *arguments]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=config.ROOT, env=config.child_env(),
                               stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout_s, kill_tree, (process,))
    watchdog.start()
    ready = result = None
    try:
        for line in process.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        returncode = process.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if process.poll() is None:
            kill_tree(process)
        process.wait()
        process.stdout.close()
    if returncode != 0:
        raise BenchmarkError(f"worker {' '.join(arguments)} exited with {returncode}")
    return ready, result


def _worker_args(workload: str, seed: int, seconds: float, smoke: bool, *extra: str) -> list[str]:
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)), *extra]
    return arguments + ["--smoke"] if smoke else arguments


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One workload's metrics, samples, digest and operation ledger."""
    if not prepare.ready():
        prepare.prepare()
    timeout = seconds + WORKER_SLACK_S
    if not trace:
        setup_samples = []
        if workload in config.IN_PROCESS and not smoke:
            for _ in range(SETUP_SAMPLES - 1):
                ready, _ = spawn_worker(_worker_args(workload, seed, 0, smoke, "--setup-only"), SETUP_TIMEOUT_S)
                setup_samples.append(ready)
        ready, report = spawn_worker(_worker_args(workload, seed, seconds, smoke), timeout)
        if report is None:
            raise BenchmarkError(f"{workload}: worker printed no result")
        if workload in config.IN_PROCESS:
            setup_samples.append(ready)
        else:
            setup_samples = report["setup_s"]
        samples = {
            "setup_s": setup_samples,
            "wall_s": report["wall_s"],
            "evals": [report.get("evals")],
            "halfwidth_max": [report.get("halfwidth_max")],
            "rss_peak_mb": [report["rss_peak_mb"]],
        }
        values = {name: statistics.median(v) if v and None not in v else None for name, v in samples.items()}
        extra = {key: report[key] for key in ("scrape_p50_ms", "scrape_p90_ms", "scrape_samples") if key in report}
        return _outcome(workload, seed, trace, [report], values, samples, extra)

    half = seconds / 2.0
    trace_path = config.OUT / f"trace-{workload}-{seed}.json"
    _, bare = spawn_worker(_worker_args(workload, seed, half, smoke), timeout)
    _, traced = spawn_worker(_worker_args(workload, seed, half, smoke, "--trace-out", str(trace_path)), timeout)
    if bare is None or traced is None or "per_layer" not in traced:
        raise BenchmarkError(f"{workload}: traced or untraced worker printed no result")
    values = dict(traced["per_layer"])
    values["import_s"] = traced["import_s"]
    if bare["wall_s"] and traced["wall_s"]:
        values["trace.overhead_frac"] = statistics.median(traced["wall_s"]) / statistics.median(bare["wall_s"]) - 1.0
    consistent = bare["digest"] is not None and traced["digest"] == bare["digest"]
    outcome = _outcome(workload, seed, trace, [bare, traced], values, {}, {"trace_file": str(trace_path)})
    outcome["attempted"] += 1
    if not consistent:
        outcome["failed"] += 1
        outcome["failures"].append("traced digest differs from untraced digest")
        outcome["correct"] = False
    return outcome


def _outcome(workload, seed, trace, reports, values, samples, extra) -> dict:
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": [note for report in reports for note in report["failures"]],
        "digest": reports[0]["digest"],
        "oracle": reports[0].get("oracle"),
        "values": values,
        "samples": samples,
        "extra": extra,
    }


def metric_lines(outcome: dict, catalogue: list[dict]) -> list[str]:
    """``workload metric value unit`` per catalogue metric (``absent`` if unmeasured)."""
    lines = []
    for metric in catalogue:
        value = outcome["values"].get(metric["name"])
        shown = "absent" if value is None else f"{value:.6g}"
        lines.append(f"{outcome['workload']} {metric['name']} {shown} {metric['unit']}")
    return lines


def result_line(outcome: dict, catalogue: list[dict]) -> str:
    """The one-line JSON result; an absent per-layer metric reads 0."""
    metrics = {}
    for metric in catalogue:
        value = outcome["values"].get(metric["name"])
        metrics[metric["name"]] = {"value": 0.0 if value is None else value, "unit": metric["unit"]}
    attempted = max(1, outcome["attempted"])
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": metrics,
    })


def report_extras(outcome: dict) -> list[str]:
    name = outcome["workload"]
    lines = [
        f"{name} ops_failed_frac {outcome['failed'] / max(1, outcome['attempted']):.6g} fraction",
        f"{name} output_digest {outcome['digest']} sha256",
    ]
    extra = outcome["extra"]
    if "scrape_p50_ms" in extra:
        lines.append(f"{name} scrape_p50_ms {extra['scrape_p50_ms']:.6g} ms (n={extra['scrape_samples']})")
        lines.append(f"{name} scrape_p90_ms {extra['scrape_p90_ms']:.6g} ms (n={extra['scrape_samples']})")
    for note in outcome["failures"]:
        lines.append(f"{name} FAILED {note}")
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> int:
    """One workload: its metric lines, then the one-line JSON result."""
    spec = config.benchmark_spec()
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    try:
        outcome = measure(workload, seed, seconds, trace, smoke)
    except BenchmarkError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in spec["end_to_end"] if not trace and outcome["values"].get(m["name"]) is None]
    if missing:
        print(f"perf: {workload}: unmeasured end-to-end metric(s) {missing}", file=sys.stderr)
        return 1
    for line in metric_lines(outcome, catalogue) + report_extras(outcome):
        print(line)
    print(result_line(outcome, catalogue), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every workload, untraced (and traced with ``trace``); writes the results file."""
    spec = config.benchmark_spec()
    results = {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    ok = True
    for workload in config.WORKLOADS:
        entry = {}
        for traced in (False, True) if trace else (False,):
            try:
                outcome = measure(workload, seed, seconds, traced, smoke)
            except BenchmarkError as exc:
                print(f"{workload} ERROR {exc}", flush=True)
                ok = False
                continue
            catalogue = spec["per_layer"] if traced else spec["end_to_end"]
            for line in metric_lines(outcome, catalogue) + report_extras(outcome):
                print(line, flush=True)
            ok = ok and outcome["correct"]
            entry["per_layer" if traced else "end_to_end"] = outcome
        results["workloads"][workload] = entry
    config.OUT.mkdir(parents=True, exist_ok=True)
    path = config.OUT / (f"results-smoke-{seed}.json" if smoke else f"results-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"results written to {path}")
    return 0 if ok else 1

"""Run-to-run comparison of two ``perf/out/results-<seed>.json`` sets.

    python -m perf compare A.json B.json

Prints one row per workload × end-to-end metric with each side's median
and quartiles over its samples (passes, set-up processes). Verdicts:

* ``mismatch`` — a deterministic output differs: ``evals``,
  ``halfwidth_max`` and the output digest must match exactly;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, exceeds the metric's bound from ``BENCHMARK.json``. Set-up time
  is exempt and judged by its median alone: it has only three samples a
  run, so its quartiles span their whole range;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``ok`` otherwise.

Exits non-zero unless every row is ``ok``.
"""

from __future__ import annotations

import json
import statistics

from perf import config

#: outputs that are pure functions of the seed: compared exactly
EXACT = ("evals", "halfwidth_max")
#: judged by the median only (see the module docstring)
MEDIAN_ONLY = ("setup_s",)


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else 0.0


def verdict(metric: dict, left: list[float], right: list[float]) -> str:
    if metric["name"] in EXACT:
        return "ok" if left == right else "mismatch"
    if metric["name"] not in MEDIAN_ONLY and max(spread(left), spread(right)) > metric["bound"]:
        return "unresolved"
    base, new = summary(left)[1], summary(right)[1]
    change = (new - base) / base if base else 0.0
    worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
    return "worse" if worse else "ok"


def compare(left: dict, right: dict) -> tuple[list[str], bool]:
    catalogue = config.benchmark_spec()["end_to_end"]
    rows = [f"{'workload':<16} {'metric':<14} {'A q1/med/q3':<32} {'B q1/med/q3':<32} verdict"]
    ok = True
    for workload in config.WORKLOADS:
        a = left["workloads"].get(workload, {}).get("end_to_end")
        b = right["workloads"].get(workload, {}).get("end_to_end")
        if a is None or b is None:
            rows.append(f"{workload:<16} {'-':<14} {'missing':<32} {'missing':<32} mismatch")
            ok = False
            continue
        same_digest = a["digest"] == b["digest"]
        rows.append(f"{workload:<16} {'output_digest':<14} {a['digest'][:12]:<32} {b['digest'][:12]:<32} "
                    + ("ok" if same_digest else "mismatch"))
        ok = ok and same_digest
        for metric in catalogue:
            left_values, right_values = a["samples"][metric["name"]], b["samples"][metric["name"]]
            result = verdict(metric, left_values, right_values)
            ok = ok and result == "ok"
            cells = ["/".join(f"{value:.4g}" for value in summary(values)) for values in (left_values, right_values)]
            rows.append(f"{workload:<16} {metric['name']:<14} {cells[0]:<32} {cells[1]:<32} {result}")
    return rows, ok


def main(left_path: str, right_path: str) -> int:
    with open(left_path, encoding="utf-8") as handle:
        left = json.load(handle)
    with open(right_path, encoding="utf-8") as handle:
        right = json.load(handle)
    rows, ok = compare(left, right)
    print("\n".join(rows))
    return 0 if ok else 1

"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perf -q``; they sit
outside the program's own test suite. They cover the layer wrappers
(install, remove, outputs unchanged), self-time arithmetic, unresolved
targets, the scraper's stop rule, and the ``--smoke`` run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from perf import config

config.use_checkout_source()

from perf import monitored, prepare, run, workloads  # noqa: E402
from perf.tracing import Instrumentation, Span, Target, Tracer, layer_totals, self_times  # noqa: E402
from perf.worker import span_metrics  # noqa: E402


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #


def test_self_time_subtracts_direct_children_only():
    root = Span("root", 0.0, 10.0, tid=1)
    first = Span("first", 1.0, 3.0, tid=1, parent=root)
    second = Span("second", 4.0, 8.0, tid=1, parent=root)
    grandchild = Span("grandchild", 5.0, 6.0, tid=1, parent=second)
    assert self_times([root, first, second, grandchild]) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_ignores_spans_on_other_threads():
    campaign = Span("campaign", 0.0, 10.0, tid=1)
    scrape = Span("server.metrics", 2.0, 9.0, tid=2)
    render = Span("openmetrics.render", 3.0, 5.0, tid=2, parent=scrape)
    assert self_times([campaign, scrape, render]) == [10.0, 5.0, 2.0]


def test_tracer_keeps_one_stack_per_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    spans = {}

    def serve():
        spans["served"] = tracer.begin("served")
        tracer.end(spans["served"])

    thread = threading.Thread(target=serve)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert spans["served"].parent is None
    assert inner.parent is outer
    assert spans["served"].tid != outer.tid


def test_layer_totals_count_a_context_call_once_and_sum_counters():
    parent = Span("injector.run", 0.0, 10.0, tid=1)
    spans = [
        parent,
        Span("faults.apply", 1.0, 2.0, tid=1, parent=parent),
        Span("faults.apply", 3.0, 4.0, tid=1, parent=parent, args={"phase": "exit"}),
        Span("batched.segments", 5.0, 9.0, tid=1, parent=parent, args={"rows": 8, "start": 3, "flops": 1e6}),
    ]
    totals = layer_totals(spans)
    assert totals["faults.apply"]["calls"] == 1
    assert totals["faults.apply"]["self_s"] == 2.0
    assert totals["injector.run"]["self_s"] == 4.0
    assert totals["batched.segments"]["rows"] == 8
    assert totals["batched.segments"]["flops"] == 1e6
    assert "start" not in totals["batched.segments"]


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #


def _campaigns(fast):
    from repro.core import BayesianFaultInjector
    from repro.data import two_moons
    from repro.faults import TargetSpec
    from repro.nn import paper_mlp

    inputs, labels = two_moons(64, noise=0.12, rng=5)
    injector = BayesianFaultInjector(
        paper_mlp(rng=0), inputs, labels, spec=TargetSpec.weights_and_biases(), seed=3, fast=fast
    )
    return [
        injector.forward_campaign(1e-2, samples=16, chains=2),
        injector.mcmc_campaign(1e-2, chains=2, steps=6),
        injector.tempered_campaign(1e-2, beta=4.0, chains=2, steps=6)[0],
    ]


def test_wrappers_install_remove_and_keep_outputs_bit_identical():
    import repro.core.injector as injector_module
    from repro.core import BayesianFaultInjector
    from repro.faults.configuration import FaultConfiguration

    originals = {
        "sample": FaultConfiguration.__dict__["sample"],
        "run": BayesianFaultInjector.__dict__["run"],
        "apply": injector_module.apply_configuration,
    }
    untraced = workloads.digest(_campaigns(fast=None) + _campaigns(fast=False))

    tracer = Tracer()
    with Instrumentation(tracer) as instrumentation:
        assert instrumentation.status["faults.sample"] == "installed"
        assert FaultConfiguration.__dict__["sample"] is not originals["sample"]
        assert isinstance(FaultConfiguration.__dict__["sample"], classmethod)
        # a function imported by name elsewhere is wrapped at that binding too
        assert injector_module.apply_configuration is not originals["apply"]
        traced = workloads.digest(_campaigns(fast=None) + _campaigns(fast=False))

    assert traced == untraced
    assert FaultConfiguration.__dict__["sample"] is originals["sample"]
    assert BayesianFaultInjector.__dict__["run"] is originals["run"]
    assert injector_module.apply_configuration is originals["apply"]
    totals = layer_totals(tracer.spans)
    assert totals["injector.run"]["calls"] == 6
    assert totals["injector.init"]["calls"] == 2
    assert totals["delta.round"]["calls"] > 0
    assert totals["batched.segments"]["rows"] > 0
    # the standard path applies every scored configuration through the context manager
    assert totals["faults.apply"]["calls"] > 0
    assert all(span.end >= span.start for span in tracer.spans)


def test_unresolved_targets_are_reported_absent():
    targets = (
        Target("gone.module", "repro.no_such_module:function"),
        Target("gone.class", "repro.core.injector:NoSuchClass.run"),
        Target("gone.method", "repro.core.injector:BayesianFaultInjector.no_such_method"),
        Target("injector.run", "repro.core.injector:BayesianFaultInjector.run"),
    )
    with Instrumentation(Tracer(), targets) as instrumentation:
        status = dict(instrumentation.status)
    assert status == {
        "gone.module": "absent",
        "gone.class": "absent",
        "gone.method": "absent",
        "injector.run": "installed",
    }
    metrics = span_metrics({}, status, 1, ("gone.method", "injector.run"))
    assert metrics["gone.method.calls"] is None
    assert metrics["injector.run.calls"] == 0
    outcome = {"workload": "w", "values": metrics}
    lines = run.metric_lines(outcome, [{"name": "gone.method.self_s", "unit": "s"}])
    assert lines == ["w gone.method.self_s absent s"]
    assert json.loads(run.result_line(
        {**outcome, "correct": True, "attempted": 1, "failed": 0},
        [{"name": "gone.method.self_s", "unit": "s"}],
    ))["metrics"]["gone.method.self_s"]["value"] == 0.0


# ---------------------------------------------------------------------- #
# the scraper's stop rule
# ---------------------------------------------------------------------- #


class _FakeRun:
    """A status server whose run completes after ``until`` requests, then shuts down."""

    def __init__(self, until: int) -> None:
        self.until = until
        self.requests = 0
        self.after_complete = 0
        self.completed = threading.Event()
        fake = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *_args):
                pass

            def do_GET(self):  # noqa: N802 — BaseHTTPRequestHandler API
                if fake.completed.is_set():
                    fake.after_complete += 1
                fake.requests += 1
                done = fake.requests >= fake.until
                if self.path == "/metrics":
                    body = "# EOF\n"
                elif self.path == "/estimates":
                    body = json.dumps({"tasks": 0})
                else:
                    body = json.dumps({"last_complete": {"tasks": 13} if done else None})
                payload = body.encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                if done and self.path == "/status":
                    # the run is over: the CLI stops serving and exits
                    self.close_connection = True
                    fake.completed.set()

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.stopper = threading.Thread(target=self._stop_when_complete, daemon=True)

    def _stop_when_complete(self) -> None:
        self.completed.wait(timeout=30)
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self):
        self.thread.start()
        self.stopper.start()
        return self

    def __exit__(self, *_exc):
        self.completed.set()
        self.stopper.join(timeout=10)
        self.thread.join(timeout=10)


def test_scraper_stops_at_completion_without_refused_connections():
    with _FakeRun(until=7) as fake:
        host, port = fake.server.server_address
        log = monitored.Scraper(host, port, tasks=13, think_s=0.01).run(running=lambda: True)
        time.sleep(0.1)  # let any stray request hit the closed port
    assert log.complete
    assert log.failures == []
    assert fake.after_complete == 0
    assert log.attempted == fake.requests >= 7
    assert all(len(values) > 0 for values in log.latencies_ms.values())


def test_scraper_sends_nothing_once_the_run_has_exited_or_finished():
    log = monitored.Scraper("127.0.0.1", 9, tasks=13).run(running=lambda: False)
    assert log.attempted == 0 and not log.complete
    log = monitored.Scraper("127.0.0.1", 9, tasks=13).run(running=lambda: True, finished=lambda: True)
    assert log.attempted == 0 and log.complete


def test_run_complete_reads_status_and_estimates():
    assert monitored.run_complete("/status", {"last_complete": {"tasks": 13}}, 13)
    assert not monitored.run_complete("/status", {"last_complete": None}, 13)
    assert monitored.run_complete("/estimates", {"tasks": 13}, 13)
    assert not monitored.run_complete("/estimates", {"tasks": 12}, 13)


# ---------------------------------------------------------------------- #
# smoke run
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def golden_inputs():
    if not prepare.ready():
        prepare.prepare()


def test_smoke_run_covers_all_workloads_in_under_a_minute(golden_inputs):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--smoke", "--seed", "7"],
        cwd=config.ROOT, capture_output=True, text=True, timeout=180,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 60
    with open(config.OUT / "results-smoke-7.json", encoding="utf-8") as handle:
        results = json.load(handle)
    assert sorted(results["workloads"]) == sorted(config.WORKLOADS)
    for workload, entry in results["workloads"].items():
        outcome = entry["end_to_end"]
        assert outcome["correct"], (workload, outcome["failures"])
        assert outcome["attempted"] > 0
        assert all(value is not None for value in outcome["values"].values()), workload
    digests = {w: results["workloads"][w]["end_to_end"]["digest"] for w in results["workloads"]}
    # the monitored sweep runs the fig2 campaigns through the CLI: same outputs
    assert digests["fig2-monitored"] == digests["fig2-sweep"]
    for line in completed.stdout.splitlines():
        if line.startswith("results written"):
            continue
        assert len(line.split()) >= 4, line


def test_compare_verdicts():
    from perf.compare import verdict

    wall = {"name": "wall_s", "better": "lower", "bound": 0.1}
    assert verdict(wall, [1.0, 1.0, 1.0], [1.05, 1.05, 1.05]) == "ok"
    assert verdict(wall, [1.0, 1.0, 1.0], [1.2, 1.2, 1.2]) == "worse"
    assert verdict(wall, [1.0, 1.0, 1.0], [0.8, 1.0, 1.4]) == "unresolved"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert verdict(setup, [1.0, 1.0, 1.0], [0.9, 1.0, 1.6]) == "ok"
    evals = {"name": "evals", "better": "lower", "bound": 0.01}
    assert verdict(evals, [13000], [13000]) == "ok"
    assert verdict(evals, [13000], [12999]) == "mismatch"


def test_flop_table_counts_dense_multiply_adds():
    from repro.nn import MLP
    from perf.tracing import FlopCounter

    model = MLP(4, (3,), 2, rng=0).eval()
    table = FlopCounter().table(model, np.zeros((5, 4), dtype=np.float32))
    assert sum(table) == 2 * 5 * (4 * 3 + 3 * 2)

"""Golden observability documents from a fixed-seed CLI run.

One sequential ``repro sweep`` on ``mlp-moons`` runs in-process with every
instrument on (``--serve``, ``--progress``, ``--metrics``,
``--flight-recorder``, ``--target-halfwidth``). When the run tears its
status server down, ``/metrics``, ``/status`` and ``/estimates`` are
captured and a ``SIGUSR1`` postmortem bundle is forced. Every document is
compared against a committed fixture under ``golden/``.

Only clock-, pid- and path-derived values are masked (plus the host
environment block of the bundle, which names the interpreter and
machine); everything else — key sets, counter values, posterior floats
and event order — must match exactly. Set ``REPRO_REGEN_GOLDEN=1`` to
rewrite the fixtures.
"""

import json
import os
import re
import signal

import pytest

from repro.cli import main
from repro.obs import server as server_mod
from repro.obs.flight import load_postmortem
from repro.utils.persist import read_checked_json

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
REGENERATE = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

MASK = "<masked>"
#: keys whose values come from a clock, a process id or a filesystem path
CLOCK_KEYS = {
    "wall_time", "started_wall", "rate_per_s", "eta_s", "created", "uptime_s",
    "duration_s", "elapsed_s", "heartbeat_age_s",
}
PID_KEYS = {"pid"}
PATH_KEYS = {"url", "path", "argv"}
#: the bundle's interpreter/platform description (differs per CI host)
HOST_KEYS = {"environment"}
MASKED_KEYS = CLOCK_KEYS | PID_KEYS | PATH_KEYS | HOST_KEYS

#: an OpenMetrics sample of a seconds-valued family (its ``_count`` is not clock-derived)
_CLOCK_SAMPLE = re.compile(r"^(repro_\w*_s(?:_bucket|_sum)?)(\{[^}]*\})? (\S+)$")
#: the clock-derived fields of a seconds-valued histogram snapshot
CLOCK_HISTOGRAM_FIELDS = {"counts", "sum", "min", "max"}
_PID_LABEL = re.compile(r'pid="\d+"')


def mask(value):
    """A JSON document with clock/pid/path-derived values replaced."""
    if isinstance(value, dict):
        masked = {}
        for key, item in value.items():
            if key in MASKED_KEYS:
                masked[key] = MASK
            elif key == "histograms" and isinstance(item, dict):
                masked[key] = {
                    name: (
                        {field: MASK if field in CLOCK_HISTOGRAM_FIELDS else got for field, got in doc.items()}
                        if name.endswith("_s") else mask(doc)
                    )
                    for name, doc in item.items()
                }
            else:
                masked[key] = mask(item)
        return masked
    if isinstance(value, list):
        return [mask(item) for item in value]
    return value


def mask_openmetrics(text: str) -> str:
    lines = []
    for line in text.splitlines():
        line = _PID_LABEL.sub(f'pid="{MASK}"', line)
        match = _CLOCK_SAMPLE.match(line)
        if match:
            line = f"{match.group(1)}{match.group(2) or ''} {MASK}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def check(name: str, actual) -> None:
    path = os.path.join(GOLDEN, name)
    is_text = isinstance(actual, str)
    if not is_text:
        actual = json.loads(json.dumps(actual))  # tuples → lists, as a reader sees it
    if REGENERATE:
        os.makedirs(GOLDEN, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(actual if is_text else json.dumps(actual, indent=1, sort_keys=True) + "\n")
        return
    with open(path, encoding="utf-8") as handle:
        expected = handle.read() if is_text else json.load(handle)
    assert actual == expected, f"{name} differs from its golden fixture"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run the instrumented sweep once; return every captured document."""
    workdir = tmp_path_factory.mktemp("golden")
    checkpoint = str(workdir / "golden.npz")
    assert main(["train", "mlp-moons", "--out", checkpoint, "--epochs", "25", "--train-size", "500"]) == 0

    captured = {}
    original_stop = server_mod.StatusServer.stop

    def capturing_stop(self):
        if self._httpd is not None and "metrics" not in captured:
            captured["metrics"] = self.metrics_payload()
            captured["status"] = self.status_payload()
            captured["estimates"] = self.estimates_payload()
            signal.raise_signal(signal.SIGUSR1)
        original_stop(self)

    flight_dir = workdir / "flight"
    flight_dir.mkdir()
    progress = str(workdir / "progress.jsonl")
    metrics = str(workdir / "metrics.json")
    previous_handler = signal.getsignal(signal.SIGUSR1)
    server_mod.StatusServer.stop = capturing_stop
    try:
        code = main([
            "sweep", checkpoint, "--workbench", "mlp-moons", "--seed", "2019",
            "--points", "5", "--samples", "24",
            "--serve", "127.0.0.1:0", "--progress", progress, "--metrics", metrics,
            "--flight-recorder", str(flight_dir), "--target-halfwidth", "0.05",
        ])
    finally:
        server_mod.StatusServer.stop = original_stop
        signal.signal(signal.SIGUSR1, previous_handler)
    assert code == 0
    bundles = sorted(os.listdir(flight_dir))
    assert len(bundles) == 1, bundles
    captured["bundle"] = load_postmortem(str(flight_dir / bundles[0]))
    with open(progress, encoding="utf-8") as handle:
        captured["progress"] = [json.loads(line) for line in handle]
    captured["digest"] = read_checked_json(metrics)
    return captured


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="platform has no SIGUSR1")
class TestGoldenDocuments:
    def test_openmetrics_exposition(self, golden_run):
        check("metrics.txt", mask_openmetrics(golden_run["metrics"]))

    def test_status_document(self, golden_run):
        check("status.json", mask(golden_run["status"]))

    def test_estimates_document(self, golden_run):
        check("estimates.json", mask(golden_run["estimates"]))

    def test_postmortem_bundle(self, golden_run):
        check("postmortem.json", mask(golden_run["bundle"]))

    def test_progress_stream(self, golden_run):
        check("progress.json", mask(golden_run["progress"]))

    def test_metrics_digest(self, golden_run):
        check("metrics_digest.json", mask(golden_run["digest"]))

    def test_event_order_is_shared(self, golden_run):
        """The bundle ring and the JSONL stream saw the same events, in order."""
        streamed = [event["kind"] for event in golden_run["progress"][1:]]
        ringed = [event["kind"] for event in golden_run["bundle"]["events"]]
        assert streamed == ringed

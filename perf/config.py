"""Paths, golden inputs and workload sizes shared by every benchmark module.

Importing this module touches no file: the checkout layout is derived from
this file's location, so the benchmark runs from any checkout of the repo.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perf" / "out"
ARTIFACTS = ROOT / "perf" / "_artifacts"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("fig2-sweep", "fig3-layerwise", "resnet-chains", "fig2-monitored")
IN_PROCESS = WORKLOADS[:3]

#: golden checkpoints, trained once by ``python -m perf prepare`` through
#: ``python -m repro train``
CHECKPOINTS = {
    "mlp-images": ("--train-size", "1500", "--eval-size", "400"),
    "resnet-images": ("--epochs", "2", "--train-size", "800", "--eval-size", "200"),
}

#: dataset regeneration size for eval batches (only the eval split is used)
TRAIN_SIZE = 800

#: ResNet layers the chain workload walks on
DEEP_LAYER = "stages.3.1.conv2"
SHALLOW_LAYER = "stages.2.0.conv1"

#: per-workload sizes; ``smoke`` is the toy variant of ``full``
SIZES = {
    "fig2-sweep": {
        "full": {"eval_size": 200, "points": 13, "samples": 1000, "chains": 2},
        "smoke": {"eval_size": 50, "points": 5, "samples": 40, "chains": 2},
    },
    "fig3-layerwise": {
        "full": {"eval_size": 32, "p": 1e-4, "samples": 8, "layers": None},
        "smoke": {"eval_size": 8, "p": 1e-4, "samples": 2, "layers": 4},
    },
    "resnet-chains": {
        "full": {"eval_size": 32, "p": 1e-4, "chains": 2, "steps": 200, "twin_steps": 20, "beta": 8.0},
        "smoke": {"eval_size": 8, "p": 1e-4, "chains": 2, "steps": 10, "twin_steps": 4, "beta": 8.0},
    },
    "fig2-monitored": {
        "full": {"eval_size": 200, "points": 13, "samples": 1000, "chains": 2, "workers": 2},
        "smoke": {"eval_size": 50, "points": 5, "samples": 40, "chains": 2, "workers": 2},
    },
}
P_MIN, P_MAX = 1e-5, 1e-1

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def checkpoint_path(workbench: str) -> Path:
    return ARTIFACTS / f"{workbench}.npz"


def have_program() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not have_program():
        raise SystemExit(f"perf: no program at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perf: imported repro from {repro.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: this checkout's ``src`` first.

    BLAS runs single-threaded: on a small shared host, a second BLAS thread
    per process contends with the other workers and with neighbours, and
    made pass times both slower and far noisier.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    return env


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric catalogue, units, bounds and run length."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)

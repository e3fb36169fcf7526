"""Golden inputs: train the two benchmark checkpoints through the program's CLI.

``python -m perf prepare`` trains ``mlp-images`` and ``resnet-images`` with
``python -m repro train`` into ``perf/_artifacts/`` and records their
sha256 in ``perf/_artifacts/manifest.json``. ``run`` calls it whenever a
checkpoint is missing or no longer matches the manifest; its time is never
counted in any metric.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import subprocess
import sys

from perf import config

MANIFEST = config.ARTIFACTS / "manifest.json"


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest() -> dict:
    try:
        with open(MANIFEST, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


def ready() -> bool:
    """Whether every checkpoint exists and matches its recorded sha256."""
    manifest = _manifest()
    for workbench in config.CHECKPOINTS:
        path = config.checkpoint_path(workbench)
        if not path.is_file() or manifest.get(workbench) != sha256(path):
            return False
    return True


def prepare() -> dict:
    """Train missing checkpoints; returns ``{workbench: sha256}``."""
    # byte-compile up front so no timed process pays first-import compilation
    compileall.compile_dir(str(config.SRC), quiet=1)
    compileall.compile_dir(str(config.ROOT / "perf"), quiet=1)
    config.ARTIFACTS.mkdir(parents=True, exist_ok=True)
    manifest = _manifest()
    for workbench, train_args in config.CHECKPOINTS.items():
        path = config.checkpoint_path(workbench)
        if path.is_file() and manifest.get(workbench) == sha256(path):
            continue
        command = [sys.executable, "-m", "repro", "train", workbench, "--out", str(path), *train_args]
        completed = subprocess.run(
            command, cwd=config.ROOT, env=config.child_env(), stdout=subprocess.PIPE, text=True,
            timeout=600,
        )
        if completed.returncode != 0:
            raise SystemExit(f"perf prepare: training {workbench} failed ({completed.returncode})")
        manifest[workbench] = sha256(path)
        print(f"prepared {workbench}: {completed.stdout.strip().splitlines()[0]}", file=sys.stderr)
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest

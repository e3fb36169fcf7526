"""Every example script must at least parse and compile.

Full executions run minutes; compilation catches import typos, stale API
references, and syntax errors cheaply on every test run. (The benchmark
suite and the smoke runs in CI-style scripts execute them for real.)
"""

import os
import py_compile

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_compiles(script, tmp_path):
    path = os.path.join(EXAMPLES_DIR, script)
    py_compile.compile(path, cfile=str(tmp_path / (script + "c")), doraise=True)


def test_expected_examples_present():
    names = {script[:-3] for script in EXAMPLES}
    assert {
        "quickstart",
        "decision_boundary",
        "flip_sweep",
        "resnet_layerwise",
        "completeness",
        "baseline_comparison",
        "error_propagation",
        "assessment",
    } <= names


def test_examples_reference_only_public_api():
    """Examples must not import private (underscore) names from repro."""
    import re

    pattern = re.compile(r"from repro[.\w]* import (.+)")
    for script in EXAMPLES:
        with open(os.path.join(EXAMPLES_DIR, script), encoding="utf-8") as handle:
            for line in handle:
                match = pattern.search(line)
                if match:
                    imported = [item.strip() for item in match.group(1).split(",")]
                    private = [name for name in imported if name.startswith("_")]
                    assert not private, f"{script} imports private names: {private}"

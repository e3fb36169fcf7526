"""Every example script must at least parse and compile.

Full executions run minutes; compilation catches syntax errors cheaply on
every test run, and importing what the scripts import catches names they
still use after the library dropped them. (The benchmark suite and the CI
examples step execute them for real.)
"""

import ast
import importlib.util
import os
import py_compile
from pathlib import Path

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)
SCRIPTS = sorted(Path(EXAMPLES_DIR).glob("*.py")) + sorted(
    (Path(EXAMPLES_DIR).parent / "benchmarks").glob("*.py")
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


def _provides(module, name: str) -> bool:
    """``from module import name`` would succeed: an attribute or a submodule."""
    if hasattr(module, name):
        return True
    return hasattr(module, "__path__") and importlib.util.find_spec(f"{module.__name__}.{name}") is not None


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_scripts_import_only_existing_names(script):
    for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            missing = [alias.name for alias in node.names if not _provides(module, alias.name)]
            assert not missing, f"{script.name}: {node.module} has no {missing}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)

"""Every ``repro`` module is reachable from the CLI, or allow-listed with a reason.

The import graph is built statically: every ``import`` statement of every
module under ``src/repro`` is read from its AST (imports nested in
functions included) and nothing is executed. Importing ``a.b.c`` also
runs ``a`` and ``a.b``, so parent packages count as reached.

An extension that no entry point reaches fails here instead of waiting for
someone to notice it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

ENTRY_POINTS = ("repro.cli", "repro.__main__")

#: module or package prefix -> why nothing under ``repro.cli`` imports it
ALLOWED_UNREACHED = {
    "repro.exec.soak": "the CI soak job runs it directly with `python -m repro.exec.soak`",
    "repro.protect": "experiment A8 and the deferred fault-aware hardening work build on it",
}


def _module_files() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _with_parents(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[: i + 1]) for i in range(len(parts))]


def _imports(path: Path, known: set[str]) -> set[str]:
    """Every ``repro`` module that the file at ``path`` imports, parents included."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package uses absolute imports only; ``from pkg import sub``
            # imports the submodule ``pkg.sub``
            base = node.module or ""
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            for candidate in _with_parents(name):
                if candidate in known:
                    found.add(candidate)
    return found


def _unreached() -> set[str]:
    files = _module_files()
    known = set(files)
    reached: set[str] = set()
    frontier = [parent for entry in ENTRY_POINTS for parent in _with_parents(entry)]
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier.extend(_imports(files[module], known) - reached)
    return known - reached


def _allow_key(module: str) -> str | None:
    for key in ALLOWED_UNREACHED:
        if module == key or module.startswith(key + "."):
            return key
    return None


def test_every_module_is_reached_from_the_cli_or_allow_listed():
    stray = sorted(module for module in _unreached() if _allow_key(module) is None)
    assert not stray, (
        f"no entry point imports {stray}; wire them into the CLI, delete them, "
        "or allow-list them with a reason"
    )


def test_allow_list_entries_are_still_unreached():
    unreached_keys = {_allow_key(module) for module in _unreached()}
    stale = sorted(set(ALLOWED_UNREACHED) - unreached_keys)
    assert not stale, f"{stale} are reached from the CLI now; drop them from ALLOWED_UNREACHED"


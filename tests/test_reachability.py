"""Every ``repro`` module is reached from a program a user runs, or allow-listed.

The roots are the programs a user runs: the CLI (``repro.cli``,
``repro.__main__``), every ``examples/*.py`` script and every
``benchmarks/bench_*.py`` file, which regenerate ``results/``.

The import graph is built statically from each file's AST; nothing is
executed. Imports nested in functions count. Names resolve to the module
that *defines* them:

* ``from pkg import name`` and ``import pkg as alias`` followed by
  ``alias.name`` follow ``pkg``'s re-exports to the module that binds
  ``name`` with a ``def``, ``class`` or assignment;
* importing a module also runs its parent packages, but a package
  ``__init__`` reaches only the modules whose names its own code uses, so
  re-exporting a name is not reach.

Code that only tests reach fails here instead of waiting for someone to
notice it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

import pytest

REPO = Path(__file__).resolve().parent.parent

ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: module or package prefix -> why no root imports it
ALLOWED_UNREACHED = {
    "repro.exec.soak": "the CI soak job runs it directly with `python -m repro.exec.soak`",
    # Library surface that only tests reach; each entry is on ROADMAP.md to retire.
    "repro.bayes.graph": "the explicit fault DBN's graph formalism; campaigns score the factorised prior",
    "repro.core.bayesian_network": "the explicit fault DBN; campaigns score the factorised prior",
    "repro.data.digits": "the seven-segment digit set that the CNN-moments test trains on",
    "repro.faults.burst": "an extension fault model no program runs",
    "repro.faults.heterogeneous": "an extension fault model no program runs",
    "repro.faults.single": "the literature's single-bit, stuck-at and byte fault models; no program runs them",
}


def _scripts(repo: Path) -> list[Path]:
    return sorted((repo / "examples").glob("*.py")) + sorted((repo / "benchmarks").glob("bench_*.py"))


class _ImportGraph:
    """Static name resolution over the modules of one package under ``src``."""

    def __init__(self, src: Path, package: str) -> None:
        self.files: dict[str, Path] = {}
        for path in (src / package).rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.files[".".join(parts)] = path
        self._trees: dict[Path, ast.Module] = {}

    def tree(self, path: Path) -> ast.Module:
        if path not in self._trees:
            self._trees[path] = ast.parse(path.read_text(encoding="utf-8"))
        return self._trees[path]

    def is_package(self, module: str) -> bool:
        return module in self.files and self.files[module].name == "__init__.py"

    # -------------------------------------------------------------- #
    # what a file binds and uses
    # -------------------------------------------------------------- #

    def bindings(self, path: Path) -> dict[str, tuple[str, str | None]]:
        """Local name -> ``(module, attribute)``; ``attribute`` is None for a module."""
        bound: dict[str, tuple[str, str | None]] = {}
        for node in ast.walk(self.tree(path)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = (alias.name, None)
                    else:
                        head = alias.name.split(".")[0]
                        bound[head] = (head, None)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
        return bound

    def defines(self, module: str, name: str) -> bool:
        for node in self.tree(self.files[module]).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
                return True
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return True
        return False

    # -------------------------------------------------------------- #
    # resolution
    # -------------------------------------------------------------- #

    def resolve(self, module: str, name: str | None, seen: frozenset = frozenset()) -> str | None:
        """The known module that defines ``module.name`` (``module`` itself if ``name`` is None)."""
        if name is None or f"{module}.{name}" in self.files:
            target = module if name is None else f"{module}.{name}"
            return target if target in self.files else None
        if module not in self.files or (module, name) in seen:
            return None
        if self.defines(module, name):
            return module
        origin = self.bindings(self.files[module]).get(name)
        if origin is None:
            return module
        return self.resolve(*origin, seen=seen | {(module, name)})

    def _chain(self, node: ast.AST, bound: dict) -> str | None:
        """Resolve ``alias.a.b`` to the module defining the first non-module step."""
        attrs: list[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            return None
        module, name = bound[node.id]
        if name is not None:
            if f"{module}.{name}" not in self.files:
                return self.resolve(module, name)
            module = f"{module}.{name}"
        for attr in reversed(attrs):
            if f"{module}.{attr}" not in self.files:
                return self.resolve(module, attr)
            module = f"{module}.{attr}"
        return self.resolve(module, None)

    def reaches(self, path: Path, own_code_only: bool) -> set[str]:
        """Known modules that the file at ``path`` reaches.

        A script or plain module reaches everything it imports. A package
        ``__init__`` (``own_code_only``) reaches only what the names used
        outside its top-level imports and ``__all__`` resolve to.
        """
        tree = self.tree(path)
        bound = self.bindings(path)
        found: set[str] = set()
        if not own_code_only:
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        found.add(self.resolve(alias.name, None))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found.add(self.resolve(node.module, None))
                    found.update(self.resolve(node.module, alias.name) for alias in node.names)
        skipped = {
            id(node)
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            or (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets))
        }
        stack = [node for node in tree.body if id(node) not in skipped]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Attribute, ast.Name)):
                resolved = self._chain(node, bound)
                if resolved is not None:
                    found.add(resolved)
                    continue
            stack.extend(ast.iter_child_nodes(node))
        found.discard(None)
        return found


def unreached(src: Path, package: str, entries: Iterable[str], scripts: Iterable[Path] = ()) -> set[str]:
    """Modules of ``package`` under ``src`` that no entry module or script reaches."""
    graph = _ImportGraph(src, package)
    reached: set[str] = set()
    frontier: list[str] = list(entries)
    for script in scripts:
        frontier.extend(graph.reaches(script, own_code_only=False))
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        parts = module.split(".")
        frontier.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        frontier.extend(graph.reaches(graph.files[module], own_code_only=graph.is_package(module)) - reached)
    return set(graph.files) - reached


def _unreached() -> set[str]:
    return unreached(REPO / "src", "repro", ENTRY_MODULES, _scripts(REPO))


def _allow_key(module: str) -> str | None:
    for key in ALLOWED_UNREACHED:
        if module == key or module.startswith(key + "."):
            return key
    return None


def test_every_module_is_reached_from_a_root_or_allow_listed():
    stray = sorted(module for module in _unreached() if _allow_key(module) is None)
    assert not stray, (
        f"no root reaches {stray}; wire them into the CLI or an example, delete them, "
        "or allow-list them with a reason"
    )


def test_allow_list_entries_are_still_unreached():
    unreached_keys = {_allow_key(module) for module in _unreached()}
    stale = sorted(set(ALLOWED_UNREACHED) - unreached_keys)
    assert not stale, f"{stale} are reached from a root now; drop them from ALLOWED_UNREACHED"


def test_package_re_export_is_not_reach(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from pkg.a import f\nfrom pkg.b import g\n\n__all__ = ['f', 'g']\n")
    (package / "a.py").write_text("def f():\n    return 1\n")
    (package / "b.py").write_text("def g():\n    return 2\n")
    (package / "main.py").write_text("from pkg import f\n\nf()\n")
    assert unreached(tmp_path, "pkg", ["pkg.main"]) == {"pkg.b"}


@pytest.mark.parametrize("import_sub", ["import pkg.sub as sub", "from pkg import sub"])
def test_package_own_code_and_module_aliases_reach(tmp_path, import_sub):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.a import f\nfrom pkg.b import g\n\ndef run():\n    return f()\n")
    (package / "a.py").write_text("def f():\n    return 1\n")
    (package / "b.py").write_text("def g():\n    return 2\n")
    (package / "sub" / "__init__.py").write_text("from pkg.sub.c import h\nfrom pkg.sub.d import k\n")
    (package / "sub" / "c.py").write_text("def h():\n    return 3\n")
    (package / "sub" / "d.py").write_text("def k():\n    return 4\n")
    script = tmp_path / "script.py"
    script.write_text(f"import pkg\n{import_sub}\n\npkg.run()\nsub.h()\n")
    assert unreached(tmp_path, "pkg", [], [script]) == {"pkg.b", "pkg.sub.d"}

"""Every module of the package must be reachable from an entry point.

A module that only tests import is code no user runs.  The scan builds,
with :mod:`ast`, the import closure of the entry points -- ``repro.cli``
and every Python file under ``bench/``, ``benchmarks/``, ``scripts/``
and ``examples/`` -- and fails on any non-package module of ``src/``
outside it.  ``tests/`` is not an entry point.

Imports anywhere in a file count, lazy ones inside functions included.
A name imported from a package resolves to the module that defines it,
through chains of re-exports: ``from repro import fuse_clusters``
reaches ``repro.graph.fusion`` by way of ``repro.graph``.  A package
``__init__``'s own re-exports reach nothing, so a module that only a
package ``__init__`` imports is still unreached.

The allowlist holds ``repro.__main__``, which ``python -m repro`` runs
and nothing imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

ENTRY_MODULE = "repro.cli"
ENTRY_ROOTS = ("bench", "benchmarks", "scripts", "examples")
ALLOWED = {"repro.__main__"}


def _modules() -> dict[str, Path]:
    """Dotted name -> file for every module and package under ``src/``."""
    found = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, imported name or None)`` for every import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def _bindings(path: Path) -> dict[str, tuple[str, str]]:
    """Name a package ``__init__`` re-exports -> ``(module, original name)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _resolve(module: str, name: str | None, modules: dict[str, Path]) -> str | None:
    """The ``src/`` module an import reaches, or ``None`` outside ``src/``."""
    while module in modules:
        if name is None or modules[module].name != "__init__.py":
            return module
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        binding = _bindings(modules[module]).get(name)
        if binding is None:
            return module  # defined in the ``__init__`` itself
        module, name = binding
    return None


def _closure(modules: dict[str, Path]) -> set[str]:
    roots = [path for root in ENTRY_ROOTS for path in (REPO_ROOT / root).rglob("*.py")]
    reached = {ENTRY_MODULE}
    pending = [modules[ENTRY_MODULE], *roots]
    while pending:
        for module, name in _imports(pending.pop()):
            target = _resolve(module, name, modules)
            if target is not None and target not in reached:
                reached.add(target)
                if modules[target].name != "__init__.py":
                    pending.append(modules[target])
    return reached


def test_every_src_module_is_reachable_from_an_entry_point():
    modules = _modules()
    reached = _closure(modules)
    unreached = sorted(
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in reached | ALLOWED
    )
    assert unreached == [], "modules no entry point imports:\n" + "\n".join(unreached)


def test_package_imports_resolve_to_the_defining_module():
    modules = _modules()
    assert _resolve("repro", "fuse_clusters", modules) == "repro.graph.fusion"
    assert _resolve("repro", "cli", modules) == "repro.cli"
    assert _resolve("repro.core.pipeline", "FeatureSchema", modules) == "repro.core.pipeline"
    assert _resolve("numpy", None, modules) is None

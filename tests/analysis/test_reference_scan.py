"""Every definition in ``src/`` must be named somewhere else.

A ``def`` or ``class`` whose name no other place in the repository
mentions is code nothing runs.  The scan reads every Python file of the
package, its tests, scripts, benchmarks and examples with :mod:`ast`,
plus the Makefile, the CI workflows and ``pyproject.toml`` as text, and
collects each identifier they use: names, attributes, imports, keyword
arguments and the identifiers inside string literals (``getattr``
targets, ``monkeypatch.setattr`` paths, traced layer names).
Docstrings and the definition sites themselves do not count.

The allowlist holds patterns only, for names reached from outside
Python's view of the repository:

* dunders, which the interpreter calls;
* ``visit_*`` and ``do_*`` methods, which ``ast.NodeVisitor`` and
  ``http.server`` dispatch to by name;
* classes decorated with ``@register``, which the lint engine runs
  through its rule registry;
* methods of a ``BaseHTTPRequestHandler`` subclass that override a hook
  of that stdlib class (``log_message``, ``version_string``).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from http.server import BaseHTTPRequestHandler
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PYTHON_ROOTS = ("src", "tests", "scripts", "benchmarks", "bench", "examples")
TEXT_FILES = ("Makefile", "pyproject.toml")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DISPATCHED = re.compile(r"(visit|do)_\w+")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _uses(tree: ast.Module) -> list[str]:
    """Every identifier ``tree`` uses, definition sites excluded."""
    docstrings = _docstrings(tree)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.extend(_IDENTIFIER.findall(node.name))
        elif isinstance(node, ast.keyword) and node.arg:
            names.append(node.arg)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.extend(_IDENTIFIER.findall(node.value))
    return names


def _is_http_hook(name: str, owner: ast.ClassDef | None) -> bool:
    if owner is None or not hasattr(BaseHTTPRequestHandler, name):
        return False
    return any(
        isinstance(base, ast.Name) and base.id == BaseHTTPRequestHandler.__name__
        for base in owner.bases
    )


def _is_registered(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(decorator, ast.Name) and decorator.id == "register"
        for decorator in node.decorator_list
    )


def _allowed(node: ast.AST, owner: ast.ClassDef | None) -> bool:
    name = node.name
    return (
        (name.startswith("__") and name.endswith("__"))
        or _DISPATCHED.fullmatch(name) is not None
        or _is_registered(node)
        or _is_http_hook(name, owner)
    )


def _definitions(tree: ast.Module):
    """``(node, enclosing class or None)`` for every def/class in ``tree``."""
    pending = [(tree, None)]
    while pending:
        parent, owner = pending.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, _DEFINITIONS):
                yield node, owner
                pending.append(
                    (node, node if isinstance(node, ast.ClassDef) else None)
                )
            else:
                pending.append((node, owner))


def _text_files() -> list[Path]:
    workflows = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))
    return [REPO_ROOT / name for name in TEXT_FILES] + workflows


def test_every_src_definition_is_named_elsewhere():
    uses: Counter[str] = Counter()
    trees = {}
    for root in PYTHON_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            trees[path] = tree
            uses.update(_uses(tree))
    for path in _text_files():
        uses.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))

    unnamed = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(REPO_ROOT / "src")
        for node, owner in _definitions(tree)
        if not uses[node.name] and not _allowed(node, owner)
    ]
    assert unnamed == [], "definitions nothing names:\n" + "\n".join(unnamed)

"""The AST walk shared by every rule.

One :class:`ModuleContext` is built per analysed file: it parses the
module once, resolves the import table (so rules can tell stdlib
``random`` from a local variable that happens to share the name),
links every node to its parent, and exposes the helpers rules need --
dotted-name resolution for call targets, source-line snippets, the
enclosing top-level function of a node.  :class:`Analyzer` then runs
all applicable rules over a single walk of the tree, dispatching
``visit_<NodeType>`` hooks, so analysis cost stays O(nodes), not
O(nodes x rules).
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath

from repro.analysis.registry import (
    ROLE_LIBRARY,
    ROLE_SCRIPTS,
    ROLE_TESTS,
    Rule,
    Violation,
)

#: Directory names that mark a file as test code.
_TEST_DIR_NAMES = {"tests", "test"}
#: Directory names that mark a file as a runnable script / benchmark.
_SCRIPT_DIR_NAMES = {"scripts", "benchmarks", "examples"}


def role_for_path(path: str | Path) -> str:
    """Classify a file as ``library`` / ``scripts`` / ``tests``.

    Rules opt into roles: e.g. atomic-write discipline (REP002) binds
    package code and scripts, while tests may freely write fixture
    files; exact float assertions are idiomatic in a suite whose whole
    point is byte-identical reproducibility, so REP004 skips tests.
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    name = parts[-1] if parts else ""
    if any(part in _TEST_DIR_NAMES for part in parts[:-1]):
        return ROLE_TESTS
    if name.startswith("test_") or name.endswith("_test.py"):
        return ROLE_TESTS
    if any(part in _SCRIPT_DIR_NAMES for part in parts[:-1]):
        return ROLE_SCRIPTS
    return ROLE_LIBRARY


def module_name_for_path(path: str | Path) -> str | None:
    """Dotted module name if the file sits inside the ``repro`` package."""
    parts = list(Path(path).parts)
    if "repro" not in parts:
        return None
    index = parts.index("repro")
    dotted = [part for part in parts[index:]]
    if not dotted[-1].endswith(".py"):
        return None
    dotted[-1] = dotted[-1][: -len(".py")]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


class ModuleContext:
    """Everything a rule may ask about the module under analysis."""

    def __init__(self, path: str, source: str, role: str | None = None) -> None:
        self.path = path
        self.source = source
        self.role = role if role is not None else role_for_path(path)
        self.module = module_name_for_path(path)
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.violations: list[Violation] = []
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self.imports = self._import_table()

    # ------------------------------------------------------------------
    # reporting

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.violations.append(
            Violation(
                path=self.path,
                line=line,
                col=col + 1,
                rule=rule.code,
                message=message,
                snippet=self.line_text(line),
            )
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # structural helpers

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def top_level_function(self, node: ast.AST) -> ast.AST | None:
        """The outermost function definition containing ``node``."""
        found = None
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = current
            current = self.parent(current)
        return found

    def at_module_scope(self, node: ast.AST) -> bool:
        """True when ``node`` executes at import time (no enclosing def)."""
        current = self.parent(node)
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return False
            current = self.parent(current)
        return True

    # ------------------------------------------------------------------
    # name resolution

    def _import_table(self) -> dict[str, str]:
        """Map local names to the module/object they were imported as.

        ``import numpy as np``        -> ``{"np": "numpy"}``
        ``import random``             -> ``{"random": "random"}``
        ``from numpy import random``  -> ``{"random": "numpy.random"}``
        ``from random import shuffle``-> ``{"shuffle": "random.shuffle"}``
        """
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

    def dotted_name(self, node: ast.AST) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, else ``None``."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        return ".".join(reversed(parts))

    def resolve_call_target(self, func: ast.AST) -> str | None:
        """Fully-qualified dotted target of a call, via the import table.

        ``np.random.shuffle`` resolves to ``numpy.random.shuffle`` when
        ``np`` was imported as numpy; an unimported head (a local
        variable) resolves to ``None`` so rules never fire on
        ``rng.shuffle`` where ``rng`` is a seeded generator instance.
        """
        dotted = self.dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin


class Analyzer:
    """Run a set of rule instances over one module in a single walk."""

    def __init__(self, rules: list[Rule]) -> None:
        self.rules = rules

    def run(self, ctx: ModuleContext) -> list[Violation]:
        active = [
            rule for rule in self.rules if rule.applies(ctx.role, ctx.module)
        ]
        if not active:
            return []
        # Dispatch table: node type name -> rules interested in it.
        hooks: dict[str, list] = {}
        for rule in active:
            rule.begin_module(ctx)
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    hooks.setdefault(attr[len("visit_"):], []).append(
                        getattr(rule, attr)
                    )
        if hooks:
            for node in ast.walk(ctx.tree):
                for hook in hooks.get(type(node).__name__, ()):
                    hook(node, ctx)
        for rule in active:
            rule.end_module(ctx)
        ctx.violations.sort()
        return ctx.violations

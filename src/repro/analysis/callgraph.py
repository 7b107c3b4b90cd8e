"""Import-aware inter-module call graph for whole-program analyses.

REP006 already walks an *intra*-module call graph (worker-entry
closure); the concurrency rules (REP012-REP015) need to know what a
request-handler thread in ``repro.serve.server`` can reach inside
``repro.serve.registry`` -- a *cross-module* question.  This module
builds that graph once per analysis run from the same
:class:`~repro.analysis.visitor.ModuleContext` objects the per-file
rules use.

Nodes are qualified function names (``repro.serve.registry.
TenantRegistry.create``; nested defs extend their parent's name).
Edges are resolved conservatively, in decreasing order of confidence:

* a dotted call whose head is in the import table resolves through it
  (``registry.create`` after ``from repro.serve import registry``);
* ``self.method()`` / ``cls.method()`` resolves within the enclosing
  class;
* a bare name resolves to a sibling nested def, then a module-level
  function, then an imported function, then a same-module class
  (``_Slot(...)`` edges to ``_Slot.__init__``);
* ``obj.method()`` on an untyped receiver falls back to *every*
  analysed class method with that attribute name -- except names in
  :data:`GENERIC_METHOD_NAMES`, which are so common on stdlib
  containers that matching them would connect everything to
  everything.

The fallback means the graph over-approximates (extra edges, never
missing same-name project edges), which is the right direction for the
closure consumers: reachability-based rules stay sound, and the
generic-name cut keeps the over-approximation from degenerating.
Known under-approximations, accepted deliberately: calls through
``functools.partial``/callback tables, inherited methods called on a
subclass that does not redefine them, and ``with obj:`` context-manager
``__enter__``/``__exit__`` dispatch.
"""

from __future__ import annotations

import ast

from repro.analysis.visitor import ModuleContext

#: Attribute names too generic to match across modules by name alone:
#: resolving ``x.get()`` to every project method named ``get`` would
#: drown the graph in dict/set/queue/threading false edges.
GENERIC_METHOD_NAMES = frozenset({
    "acquire", "add", "append", "clear", "close", "copy", "count",
    "decode", "discard", "encode", "endswith", "exists", "extend",
    "format", "get", "index", "insert", "is_set", "items", "join",
    "keys", "lower", "mkdir", "notify", "notify_all", "open", "pop",
    "popitem", "put", "read", "release", "remove", "replace", "result",
    "run", "set", "setdefault", "sort", "split", "start", "startswith",
    "strip", "submit", "update", "upper", "values", "wait", "write",
})


class FunctionInfo:
    """One analysed function: its AST, owning class/module, and context."""

    __slots__ = ("qualname", "module", "cls", "name", "node", "ctx", "parent")

    def __init__(self, qualname, module, cls, name, node, ctx, parent):
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.name = name
        self.node = node
        self.ctx = ctx
        #: Qualname of the enclosing function for nested defs, else None.
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


def own_nodes(node: ast.AST):
    """Yield the nodes of a function body, excluding nested def/class scopes.

    Code inside a nested ``def`` runs when the *nested* function is
    called, so its calls and writes belong to the nested function's
    graph node, not the enclosing one.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


class CallGraph:
    """Cross-module call graph over a set of analysed modules."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, set[str]] = {}
        self._module_level: dict[tuple[str, str], str] = {}
        self._class_methods: dict[tuple[str, str, str], str] = {}
        self._methods_by_name: dict[str, list[str]] = {}
        self._classes: dict[tuple[str, str], ast.ClassDef] = {}
        self._children: dict[str, dict[str, str]] = {}

    @classmethod
    def from_modules(cls, contexts: list[ModuleContext]) -> "CallGraph":
        graph = cls()
        for ctx in contexts:
            graph._collect_module(ctx)
        graph._build_edges()
        return graph

    # ------------------------------------------------------------------
    # collection

    def _collect_module(self, ctx: ModuleContext) -> None:
        module = ctx.module or ctx.path

        def visit(node: ast.AST, cls_name: str | None, prefix: str,
                  parent: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    self._classes[(module, child.name)] = child
                    visit(child, child.name, f"{prefix}.{child.name}", None)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}"
                    info = FunctionInfo(
                        qualname, module, cls_name, child.name, child, ctx, parent
                    )
                    self.functions[qualname] = info
                    if cls_name is not None:
                        self._class_methods[(module, cls_name, child.name)] = qualname
                        self._methods_by_name.setdefault(child.name, []).append(
                            qualname
                        )
                    elif parent is None:
                        self._module_level[(module, child.name)] = qualname
                    if parent is not None:
                        self._children.setdefault(parent, {})[child.name] = qualname
                    visit(child, None, qualname, qualname)
                else:
                    visit(child, cls_name, prefix, parent)

        visit(ctx.tree, None, module, None)

    def classes(self):
        """Iterate ``((module, class name), ClassDef)`` pairs."""
        return self._classes.items()

    def method(self, module: str, cls_name: str, name: str) -> str | None:
        return self._class_methods.get((module, cls_name, name))

    def methods_named(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(self._methods_by_name.get(name, ())))

    # ------------------------------------------------------------------
    # resolution

    def _resolve_dotted(self, dotted: str) -> str | None:
        """``pkg.mod.func`` / ``pkg.mod.Class`` / ``pkg.mod.Class.meth``."""
        if dotted in self.functions:
            return dotted
        module, _, last = dotted.rpartition(".")
        if not module:
            return None
        found = self._module_level.get((module, last))
        if found is not None:
            return found
        if (module, last) in self._classes:
            return self._class_methods.get((module, last, "__init__"))
        outer, _, cls_name = module.rpartition(".")
        if outer:
            found = self._class_methods.get((outer, cls_name, last))
            if found is not None:
                return found
        return None

    def resolve_name(self, info: FunctionInfo, name: str) -> str | None:
        """A bare-name reference from inside ``info``'s body."""
        current: str | None = info.qualname
        while current is not None:
            nested = self._children.get(current, {}).get(name)
            if nested is not None:
                return nested
            current = self.functions[current].parent if current in self.functions else None
        found = self._module_level.get((info.module, name))
        if found is not None:
            return found
        if (info.module, name) in self._classes:
            init = self._class_methods.get((info.module, name, "__init__"))
            if init is not None:
                return init
        imported = info.ctx.imports.get(name)
        if imported is not None:
            return self._resolve_dotted(imported)
        return None

    def resolve_target(self, info: FunctionInfo, expr: ast.AST,
                       *, generic_cut: bool = True) -> tuple[str, ...]:
        """Function(s) an expression may refer to (call target, thread target).

        ``generic_cut=False`` disables the common-name exclusion -- a
        ``threading.Thread(target=obj.run)`` names its target explicitly,
        so even a generic name like ``run`` should resolve.
        """
        if isinstance(expr, ast.Name):
            found = self.resolve_name(info, expr.id)
            return (found,) if found is not None else ()
        if not isinstance(expr, ast.Attribute):
            return ()
        resolved = info.ctx.resolve_call_target(expr)
        if resolved is not None:
            found = self._resolve_dotted(resolved)
            return (found,) if found is not None else ()
        attr = expr.attr
        receiver = expr.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
            and info.cls is not None
        ):
            found = self._class_methods.get((info.module, info.cls, attr))
            if found is not None:
                return (found,)
        if generic_cut and attr in GENERIC_METHOD_NAMES:
            return ()
        if attr.startswith("__") and attr.endswith("__"):
            # ``super().__init__``/dunder protocol calls would link every
            # class in the project; explicit constructor calls resolve
            # through the class-name path instead.
            return ()
        return self.methods_named(attr)

    # ------------------------------------------------------------------
    # edges + closure

    def _build_edges(self) -> None:
        for qualname, info in self.functions.items():
            targets: set[str] = set()
            for node in own_nodes(info.node):
                if isinstance(node, ast.Call):
                    targets.update(self.resolve_target(info, node.func))
            targets.discard(qualname)
            self.edges[qualname] = targets

    def callees(self, qualname: str) -> set[str]:
        return set(self.edges.get(qualname, ()))

    def closure(self, roots) -> set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

"""The repo-specific rules (REP001-REP011, REP016).

Each rule encodes one invariant the reproduction's correctness story
depends on, with a pointer to where the invariant came from; DESIGN.md
§8 is the prose counterpart of this module.  Rules only see one module
at a time -- cross-module reachability (e.g. a worker calling a journal
helper defined elsewhere) is approximated by intra-module call-graph
closure plus naming conventions, which is deliberately conservative:
the goal is catching regressions in the shapes this repo actually
uses, not a general-purpose type system.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import (
    ROLE_LIBRARY,
    ROLE_SCRIPTS,
    ROLE_TESTS,
    Rule,
    register,
)

# ----------------------------------------------------------------------
# shared helpers


def _call_name(node: ast.Call) -> str | None:
    """Bare name of the called function (last attribute segment)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _constant_float(node: ast.AST) -> float | None:
    """The float value of a (possibly negated) float literal, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _constant_float(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value
    return None


def _function_table(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level (sync or async) function definitions by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _worker_entry_names(ctx) -> set[str]:
    """Functions that run inside pool workers, per this repo's idioms.

    A function is a worker entry when it is submitted to an executor
    (``pool.submit(f, ...)``), installed as a pool ``initializer=`` or
    process ``target=``, or follows the ``*worker*`` naming convention
    used throughout :mod:`repro.evaluation.parallel`.
    """
    table = _function_table(ctx.tree)
    entries = {name for name in table if "worker" in name.lower()}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in {"submit", "apply_async"}
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            entries.add(node.args[0].id)
        for keyword in node.keywords:
            if keyword.arg in {"initializer", "target"} and isinstance(
                keyword.value, ast.Name
            ):
                entries.add(keyword.value.id)
    return {name for name in entries if name in table}


def _worker_closure(ctx) -> set[str]:
    """Worker entries plus every same-module function they reach."""
    table = _function_table(ctx.tree)
    closure = set(_worker_entry_names(ctx))
    frontier = list(closure)
    while frontier:
        current = frontier.pop()
        for node in ast.walk(table[current]):
            if isinstance(node, ast.Call):
                callee = None
                if isinstance(node.func, ast.Name):
                    callee = node.func.id
                if callee in table and callee not in closure:
                    closure.add(callee)
                    frontier.append(callee)
    return closure


# ----------------------------------------------------------------------
# REP001 -- unseeded / global RNG


#: numpy.random attributes that construct *seeded, local* generators.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}
#: stdlib random attributes that are not global-state draws.
_STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom", "getstate", "setstate"}


@register
class UnseededRandomRule(Rule):
    """REP001: every random draw must come from a seeded local generator.

    The paper's protocol (25 repetitions x 9 feature configs, seeded
    source splits) is only reproducible because all randomness derives
    from ``default_rng((seed, repetition))`` streams.  A single
    ``np.random.shuffle`` or bare ``random.random()`` draws from hidden
    global state, breaks byte-identical parallel/serial equivalence,
    and silently shifts reported P/R/F1.
    """

    code = "REP001"
    name = "unseeded-random"
    summary = "global/unseeded RNG call; use a seeded np.random.default_rng stream"

    def visit_Call(self, node: ast.Call, ctx) -> None:
        target = ctx.resolve_call_target(node.func)
        if target is None:
            return
        if target.startswith("numpy.random."):
            attr = target.split(".")[-1]
            if attr not in _NP_RANDOM_ALLOWED:
                ctx.report(
                    self,
                    node,
                    f"global numpy RNG call '{target}' -- thread a seeded "
                    "np.random.default_rng generator instead",
                )
        elif target.startswith("random.") and target.count(".") == 1:
            attr = target.split(".")[-1]
            if attr not in _STDLIB_RANDOM_ALLOWED:
                ctx.report(
                    self,
                    node,
                    f"global stdlib RNG call '{target}' -- use "
                    "random.Random(seed) or a numpy generator",
                )


# ----------------------------------------------------------------------
# REP002 -- non-atomic writes


_WRITE_METHOD_NAMES = {"write_text", "write_bytes"}


def _mode_argument(node: ast.Call, position: int) -> str | None:
    """The literal mode string of an ``open`` call, if present."""
    for keyword in node.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) else None
    if len(node.args) > position:
        value = node.args[position]
        return value.value if isinstance(value, ast.Constant) else None
    return None


def _is_writing_mode(mode: str | None) -> bool:
    return mode is not None and any(flag in mode for flag in ("w", "a", "x", "+"))


@register
class NonAtomicWriteRule(Rule):
    """REP002: artifact writes must go through :mod:`repro.ioutils`.

    A process killed mid-write must never leave a corrupt or
    half-written file (PR 1's durability contract).  Direct
    ``open(..., "w")`` / ``Path.write_text`` truncates in place; the
    ioutils helpers write a temp sibling, fsync, and ``os.replace``.
    Tests are exempt (fixture files carry no durability contract), as
    is ioutils itself.
    """

    code = "REP002"
    name = "non-atomic-write"
    summary = "in-place file write; route through repro.ioutils atomic helpers"
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})
    exempt_modules = ("repro.ioutils",)

    def visit_Call(self, node: ast.Call, ctx) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _is_writing_mode(_mode_argument(node, position=1)):
                ctx.report(
                    self,
                    node,
                    "non-atomic open(..., 'w') -- use repro.ioutils "
                    "(atomic_write_text/atomic_open_text/atomic_path)",
                )
        elif isinstance(func, ast.Attribute):
            if func.attr == "open" and _is_writing_mode(
                _mode_argument(node, position=0)
            ):
                ctx.report(
                    self,
                    node,
                    "non-atomic Path.open(...) write -- use repro.ioutils "
                    "(atomic_write_text/atomic_open_text/atomic_path)",
                )
            elif func.attr in _WRITE_METHOD_NAMES:
                ctx.report(
                    self,
                    node,
                    f"non-atomic Path.{func.attr}() -- use "
                    "repro.ioutils.atomic_write_text/atomic_write_bytes",
                )


# ----------------------------------------------------------------------
# REP003 -- wall-clock time for deadlines


@register
class WallClockRule(Rule):
    """REP003: deadlines and durations must not read the wall clock.

    ``time.time()`` jumps under NTP adjustment and DST; the supervisor's
    ``--cell-timeout`` watchdog and every timing report use
    ``time.monotonic()`` / ``perf_counter``.  Wall-clock reads are only
    legitimate for human-facing timestamps, which should say so with a
    ``# repro: noqa[REP003]`` suppression.
    """

    code = "REP003"
    name = "wall-clock-deadline"
    summary = "time.time() used; deadlines/durations need monotonic clocks"
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})

    def visit_Call(self, node: ast.Call, ctx) -> None:
        if ctx.resolve_call_target(node.func) == "time.time":
            ctx.report(
                self,
                node,
                "wall-clock time.time() -- use time.monotonic() for "
                "deadlines or time.perf_counter() for durations",
            )


# ----------------------------------------------------------------------
# REP004 -- float equality


@register
class FloatEqualityRule(Rule):
    """REP004: float ``==``/``!=`` outside exact-zero guard idioms.

    Exact comparison against a nonzero float literal is a rounding bug
    waiting to happen (thresholds, learning rates).  Comparing against
    ``0.0`` stays allowed: ``if denom == 0.0`` guards a division by an
    exactly-representable sentinel and is idiomatic throughout the
    numeric stack (``scale[scale == 0.0] = 1.0``).  Tests are exempt --
    the suite deliberately asserts byte-identical reproducibility.
    """

    code = "REP004"
    name = "float-equality"
    summary = "float ==/!= against nonzero literal; use math.isclose or a tolerance"
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})

    def visit_Compare(self, node: ast.Compare, ctx) -> None:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for side in (left, right):
                    value = _constant_float(side)
                    if value is not None and value != 0.0:
                        ctx.report(
                            self,
                            node,
                            f"exact float comparison against {value!r} -- "
                            "use math.isclose or an explicit tolerance",
                        )
                        break
            left = right


# ----------------------------------------------------------------------
# REP005 -- swallowed broad exception handlers


_BROAD_EXCEPTION_NAMES = {"Exception", "BaseException"}
_STRUCTURED_CALL_NAMES = {
    # logging
    "print", "log", "debug", "info", "warning", "warn", "error",
    "exception", "critical",
    # this repo's structured failure records
    "record", "record_failure",
    "quarantine", "fail", "add_note",
}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    names = []
    if isinstance(kind, ast.Tuple):
        names = [elt.id for elt in kind.elts if isinstance(elt, ast.Name)]
    elif isinstance(kind, ast.Name):
        names = [kind.id]
    return any(name in _BROAD_EXCEPTION_NAMES for name in names)


@register
class SwallowedExceptionRule(Rule):
    """REP005: broad handlers must re-raise, record, or log.

    PR 1's failure-isolation contract: a repetition may fail, but the
    failure becomes a *structured record* (journal ``failed`` entry,
    retry bookkeeping) -- never a silent ``pass``.  A broad handler is
    fine when its body raises, references the bound exception (feeding
    it into structured handling), or calls a logging/record API.
    """

    code = "REP005"
    name = "swallowed-exception"
    summary = "broad except swallows the error; re-raise, record, or log it"
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx) -> None:
        if not _is_broad_handler(node):
            return
        for statement in node.body:
            for child in ast.walk(statement):
                if isinstance(child, ast.Raise):
                    return
                if (
                    node.name is not None
                    and isinstance(child, ast.Name)
                    and child.id == node.name
                ):
                    return
                if isinstance(child, ast.Call):
                    name = _call_name(child)
                    if name in _STRUCTURED_CALL_NAMES:
                        return
        label = "bare except" if node.type is None else "broad except"
        ctx.report(
            self,
            node,
            f"{label} swallows the exception -- re-raise it, bind and "
            "record it as a structured failure, or log it",
        )


# ----------------------------------------------------------------------
# REP006 -- journal writes from worker code paths


#: Calls that append a journal line (one fsync each).  REP006 and REP014
#: also treat any call whose dotted name mentions ``journal`` as a
#: journal write, which covers every journal's ``append``.
JOURNAL_WRITE_NAMES = frozenset({"fsync_append_line"})


@register
class WorkerJournalWriteRule(Rule):
    """REP006: only the parent process writes the run journal.

    The journal is a single-writer, fsynced append stream; byte-level
    serial/parallel equivalence and torn-tail recovery both depend on
    it (DESIGN.md §6).  Any journal write lexically reachable from a
    worker entry point (a function submitted to an executor, a pool
    initializer, or a ``*worker*``-named helper) would introduce a
    second writer racing the parent's serial-order drain.
    """

    code = "REP006"
    name = "worker-journal-write"
    summary = "journal write reachable from worker-pool code; parent-only"
    scopes = frozenset({ROLE_LIBRARY})

    def end_module(self, ctx) -> None:
        closure = _worker_closure(ctx)
        if not closure:
            return
        table = _function_table(ctx.tree)
        for name in sorted(closure):
            for node in ast.walk(table[name]):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_journal_write(node, ctx):
                    ctx.report(
                        self,
                        node,
                        f"journal write inside worker-reachable '{name}' -- "
                        "only the parent process may touch the journal",
                    )

    @staticmethod
    def _is_journal_write(node: ast.Call, ctx) -> bool:
        name = _call_name(node)
        if name in JOURNAL_WRITE_NAMES:
            return True
        dotted = ctx.dotted_name(node.func) or (name or "")
        if "journal" in dotted.lower():
            return True
        if name == "append":
            receiver = node.func.value if isinstance(node.func, ast.Attribute) else None
            receiver_name = ctx.dotted_name(receiver) if receiver is not None else None
            if receiver_name is not None and "journal" in receiver_name.lower():
                return True
        return False


# ----------------------------------------------------------------------
# REP007 -- mutable default arguments


@register
class MutableDefaultRule(Rule):
    """REP007: mutable default arguments are shared across calls."""

    code = "REP007"
    name = "mutable-default"
    summary = "mutable default argument; default to None and create inside"

    def visit_FunctionDef(self, node, ctx) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(self, node, ctx) -> None:
        self._check(node, ctx)

    def _check(self, node, ctx) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in '{node.name}' -- one "
                    "object is shared by every call; default to None",
                )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set", "bytearray"}
        return False


# ----------------------------------------------------------------------
# REP008 -- fork-unsafe module-level mutable state


_MUTATOR_METHOD_NAMES = {
    "append", "add", "update", "pop", "clear", "extend", "insert",
    "remove", "discard", "setdefault", "popitem",
}


@register
class ForkUnsafeStateRule(Rule):
    """REP008: worker-module globals may only be mutated by worker code.

    Fork children snapshot module state at pool creation.  A parent
    mutating a worker module's global afterwards diverges silently from
    its children (and a ``spawn`` child never sees it at all), so
    per-process caches like ``parallel._STATE`` must be written only by
    code that runs *inside* the worker.  Intentional parent-side
    exceptions (the pre-fork copy-on-write prebuild) must say so with a
    ``# repro: noqa[REP008]`` justification at the mutation site.
    """

    code = "REP008"
    name = "fork-unsafe-state"
    summary = "module-level mutable state mutated outside worker code paths"
    scopes = frozenset({ROLE_LIBRARY})

    def end_module(self, ctx) -> None:
        closure = _worker_closure(ctx)
        if not closure:
            return  # not a worker module
        tracked: set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and self._is_mutable_literal(node.value):
                tracked.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
                and self._is_mutable_literal(node.value)
            ):
                tracked.add(node.target.id)
        if not tracked:
            return
        for node in ast.walk(ctx.tree):
            name = self._mutated_global(node, tracked, ctx)
            if name is None:
                continue
            owner = ctx.top_level_function(node)
            if owner is None:
                continue  # import-time initialisation happens pre-fork
            if owner.name in closure:
                continue  # worker-side state, owned by the child process
            ctx.report(
                self,
                node,
                f"worker-module global '{name}' mutated in '{owner.name}', "
                "which is not a worker code path -- fork children will not "
                "see (or will race) this state",
            )

    @staticmethod
    def _is_mutable_literal(node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set"}
        return False

    @staticmethod
    def _mutated_global(node: ast.AST, tracked: set[str], ctx) -> str | None:
        """The tracked global ``node`` mutates, or ``None``."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in tracked
                and node.func.attr in _MUTATOR_METHOD_NAMES
            ):
                return receiver.id
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.Delete)):
            targets = node.targets if isinstance(node, ast.Delete) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in tracked
            ):
                return target.value.id
        return None


# ----------------------------------------------------------------------
# REP009 -- impure feature stages


def _stage_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Classes deriving (directly, by name) from ``FeatureStage``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name is not None and name.endswith("FeatureStage"):
                found.append(node)
                break
    return found


@register
class ImpureFeatureStageRule(Rule):
    """REP009: feature stages must be pure column producers.

    The pipeline's correctness contracts -- fingerprint-keyed row reuse,
    bit-identical ``with_source`` deltas, and fork-COW prebuilds shipping
    stage outputs to workers -- all assume a stage is a deterministic
    function of ``(dataset, embeddings)``.  A stage that imports
    ``repro.evaluation`` inverts the layering (evaluation orchestrates
    featurization, never the reverse) and drags the process-pool
    machinery into every featurizing process; a stage that writes files
    smuggles side effects into code the cache may silently *skip* on a
    fingerprint hit, so reruns stop being reproducible.
    """

    code = "REP009"
    name = "impure-feature-stage"
    summary = "feature-stage module imports evaluation or stage writes files"
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})

    def end_module(self, ctx) -> None:
        stages = _stage_classes(ctx.tree)
        if not stages:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_evaluation_module(alias.name):
                        self._report_import(node, alias.name, ctx)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if self._is_evaluation_module(module) or (
                    node.level > 0
                    and (module == "evaluation" or module.startswith("evaluation."))
                ):
                    self._report_import(node, module, ctx)
                elif module in {"repro", ""}:
                    for alias in node.names:
                        if alias.name == "evaluation":
                            self._report_import(node, "evaluation", ctx)
        for stage in stages:
            for node in ast.walk(stage):
                if isinstance(node, ast.Call):
                    self._check_write(stage, node, ctx)

    @staticmethod
    def _is_evaluation_module(name: str) -> bool:
        return name == "repro.evaluation" or name.startswith("repro.evaluation.")

    def _report_import(self, node: ast.AST, module: str, ctx) -> None:
        ctx.report(
            self,
            node,
            f"feature-stage module imports '{module}' -- stages are pure "
            "column producers; evaluation orchestrates them, never the "
            "reverse",
        )

    def _check_write(self, stage: ast.ClassDef, node: ast.Call, ctx) -> None:
        func = node.func
        writes = False
        if isinstance(func, ast.Name) and func.id == "open":
            writes = _is_writing_mode(_mode_argument(node, position=1))
        elif isinstance(func, ast.Attribute):
            if func.attr == "open":
                writes = _is_writing_mode(_mode_argument(node, position=0))
            elif func.attr in _WRITE_METHOD_NAMES | {
                "save", "savez", "savez_compressed", "savetxt", "to_csv",
                "atomic_write_text", "atomic_write_bytes", "atomic_save",
            }:
                writes = True
        if writes:
            ctx.report(
                self,
                node,
                f"file write inside feature stage '{stage.name}' -- stage "
                "output may be served from the fingerprint cache without "
                "running, so side effects are unreproducible",
            )


# ----------------------------------------------------------------------
# REP010 -- watch/ingest loop discipline


@register
class UnstoppableWatchLoopRule(Rule):
    """REP010: watch/ingest loops must be stop-aware and signal-friendly.

    A follow daemon lives inside an infinite loop, and two shapes turn
    that loop into a process you can only ``kill -9``: sleeping with
    ``time.sleep`` (uninterruptible by the stop event, so SIGTERM waits
    out the whole poll interval and shutdown drains nothing) and
    spinning ``while True`` without ever consulting a stop event (no
    clean shutdown path at all, so every stop is a crash and every
    restart a resume-from-kill).  The sanctioned idiom is the one
    :class:`repro.ingest.daemon.FollowDaemon` uses: pause with
    ``stop_event.wait(poll_interval)`` and gate iterations on
    ``stop_event.is_set()``.  The rule binds modules whose dotted name
    mentions ``ingest`` or ``watch`` -- loop discipline elsewhere (e.g.
    the pool supervisor) has its own shapes and its own tests.
    """

    code = "REP010"
    name = "unstoppable-watch-loop"
    summary = "watch/ingest loop sleeps uninterruptibly or spins without a stop check"
    scopes = frozenset({ROLE_LIBRARY})

    _MODULE_TAGS = ("ingest", "watch")
    _STOP_ATTRS = frozenset({"is_set", "wait"})

    def applies(self, role: str, module: str | None) -> bool:
        if not super().applies(role, module):
            return False
        # None covers inline snippets (fixtures); real library modules
        # under src/repro always resolve to a dotted name.
        return module is None or any(tag in module for tag in self._MODULE_TAGS)

    def visit_Call(self, node: ast.Call, ctx) -> None:
        if ctx.resolve_call_target(node.func) == "time.sleep":
            ctx.report(
                self,
                node,
                "time.sleep in watch/ingest code -- pause with "
                "stop_event.wait(interval) so SIGINT/SIGTERM can cut the "
                "wait short",
            )

    def visit_While(self, node: ast.While, ctx) -> None:
        if not (
            isinstance(node.test, ast.Constant) and bool(node.test.value)
        ):
            return
        for inner in node.body:
            for descendant in ast.walk(inner):
                if (
                    isinstance(descendant, ast.Call)
                    and isinstance(descendant.func, ast.Attribute)
                    and descendant.func.attr in self._STOP_ATTRS
                ):
                    return
        ctx.report(
            self,
            node,
            "unbounded 'while True' in watch/ingest code -- consult a "
            "stop event (stop_event.is_set() / stop_event.wait(...)) "
            "every iteration so the loop can shut down cleanly",
        )


# ----------------------------------------------------------------------
# REP011 -- serve/handler discipline: bounded queues, bounded blocking


@register
class UnboundedServeBlockingRule(Rule):
    """REP011: serve/handler code must bound every queue and every wait.

    The long-lived matching service (PR 8) extends REP010's loop
    discipline to the request-serving layer, where the failure modes
    are subtler: a handler that *queues without bound* turns overload
    into an OOM kill instead of deterministic 429 shedding, and a
    handler that *blocks without a deadline* pins a thread a stop event
    can never reclaim, so drain-then-exit hangs until ``kill -9``.
    Four shapes are flagged in modules whose dotted name mentions
    ``serve`` or ``handler``:

    * ``time.sleep`` -- pause with ``stop_event.wait(interval)``
      (inherited from REP010);
    * constant-truthy ``while`` loops that never consult a stop event
      (inherited from REP010);
    * unbounded queue construction: ``queue.Queue()`` /
      ``LifoQueue`` / ``PriorityQueue`` without a positive ``maxsize``,
      ``queue.SimpleQueue()`` (never bounded), and
      ``collections.deque()`` without ``maxlen`` -- admission depth
      must be a constructor-time bound, not a hope;
    * zero-argument blocking calls -- ``.accept()``, ``.get()``,
      ``.acquire()``, ``.wait()``, ``.join()`` with neither a timeout
      argument nor a keyword -- each blocks forever by default; pass a
      timeout/deadline (``cond.wait(remaining)``,
      ``thread.join(grace)``) or use a shape that polls
      (``serve_forever(poll_interval=...)``).

    The sanctioned idioms are the ones :mod:`repro.serve.admission` and
    :mod:`repro.serve.server` use: a ``Condition`` with
    deadline-sliced waits, counters bounded at admission, and
    ``stop_event.wait(slice)`` as the only pause.
    """

    code = "REP011"
    name = "unbounded-serve-blocking"
    summary = (
        "serve/handler code grows a queue without bound or blocks "
        "without a stop event or deadline"
    )
    scopes = frozenset({ROLE_LIBRARY})

    _MODULE_TAGS = ("serve", "handler")
    _STOP_ATTRS = frozenset({"is_set", "wait"})
    #: Queue constructors that accept (but may omit) a size bound.
    _SIZED_QUEUES = frozenset(
        {"queue.Queue", "queue.LifoQueue", "queue.PriorityQueue"}
    )
    #: Blocking-by-default methods; zero arguments means no deadline.
    _BLOCKING_ATTRS = frozenset({"accept", "get", "acquire", "wait", "join"})

    def applies(self, role: str, module: str | None) -> bool:
        if not super().applies(role, module):
            return False
        # None covers inline snippets (fixtures); real library modules
        # under src/repro always resolve to a dotted name.
        return module is None or any(tag in module for tag in self._MODULE_TAGS)

    def _check_queue_construction(self, node: ast.Call, ctx) -> bool:
        target = ctx.resolve_call_target(node.func)
        if target is None:
            return False
        if target == "queue.SimpleQueue":
            ctx.report(
                self,
                node,
                "queue.SimpleQueue in serve/handler code is unbounded by "
                "construction -- use queue.Queue(maxsize=N) or an "
                "admission counter so overload sheds instead of growing",
            )
            return True
        if target in self._SIZED_QUEUES:
            maxsize = None
            if node.args:
                maxsize = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "maxsize":
                    maxsize = keyword.value
            bounded = maxsize is not None and not (
                isinstance(maxsize, ast.Constant)
                and isinstance(maxsize.value, int)
                and maxsize.value <= 0
            )
            if not bounded:
                ctx.report(
                    self,
                    node,
                    f"{target} without a positive maxsize in serve/handler "
                    "code -- bound the queue so overload sheds (429) "
                    "instead of growing without limit",
                )
            return True
        if target == "collections.deque":
            has_maxlen = len(node.args) >= 2 or any(
                keyword.arg == "maxlen" for keyword in node.keywords
            )
            if not has_maxlen:
                ctx.report(
                    self,
                    node,
                    "collections.deque without maxlen in serve/handler "
                    "code -- give buffers an explicit bound",
                )
            return True
        return False

    def visit_Call(self, node: ast.Call, ctx) -> None:
        if ctx.resolve_call_target(node.func) == "time.sleep":
            ctx.report(
                self,
                node,
                "time.sleep in serve/handler code -- pause with "
                "stop_event.wait(interval) so drain can cut the wait short",
            )
            return
        if self._check_queue_construction(node, ctx):
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._BLOCKING_ATTRS
            and not node.args
            and not node.keywords
        ):
            ctx.report(
                self,
                node,
                f".{node.func.attr}() with no timeout in serve/handler "
                "code blocks forever by default -- pass a deadline "
                "(e.g. cond.wait(remaining), thread.join(grace)) so a "
                "draining server can reclaim the thread",
            )

    def visit_While(self, node: ast.While, ctx) -> None:
        if not (
            isinstance(node.test, ast.Constant) and bool(node.test.value)
        ):
            return
        for inner in node.body:
            for descendant in ast.walk(inner):
                if (
                    isinstance(descendant, ast.Call)
                    and isinstance(descendant.func, ast.Attribute)
                    and descendant.func.attr in self._STOP_ATTRS
                ):
                    return
        ctx.report(
            self,
            node,
            "unbounded 'while True' in serve/handler code -- consult a "
            "stop event every iteration so drain-then-exit can finish",
        )


# ----------------------------------------------------------------------
# REP016 -- quadratic cross-source pair enumeration


def _target_names(target: ast.AST) -> set[str]:
    """All plain names bound by a loop/comprehension target."""
    return {node.id for node in ast.walk(target) if isinstance(node, ast.Name)}


@register
class QuadraticPairEnumerationRule(Rule):
    """REP016: candidate pairs come from the blocking layer, not ad-hoc loops.

    PR 10 made candidate generation a first-class stage: the sanctioned
    enumerations of cross-source property pairs are
    :func:`repro.data.pairs.build_pairs` /
    ``cross_source_index_pairs`` and a
    :class:`repro.blocking.CandidatePolicy` bucket walk.  A hand-rolled
    nested loop over ``dataset.properties()`` guarded by a
    ``left.source != right.source`` check re-materialises the O(n^2)
    cross product the blocking layer exists to avoid -- and bypasses
    whatever policy the run was configured with, so its pair set
    silently disagrees with the universe every other stage uses.  The
    rule keys on *full property sweeps* (iterables derived from a
    ``.properties()`` call): pairing within an already-small scope --
    cluster members, one alignment group -- is quadratic only in that
    scope's size and stays silent.
    """

    code = "REP016"
    name = "quadratic-pair-enumeration"
    summary = (
        "nested cross-source pair loop over properties(); use "
        "repro.data.pairs or a blocking CandidatePolicy"
    )
    scopes = frozenset({ROLE_LIBRARY, ROLE_SCRIPTS})

    #: The blocking layer and the canonical enumerator own this shape.
    _EXEMPT_PREFIXES = ("repro.blocking", "repro.data.pairs")

    def applies(self, role: str, module: str | None) -> bool:
        if not super().applies(role, module):
            return False
        return module is None or not any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self._EXEMPT_PREFIXES
        )

    def begin_module(self, ctx) -> None:
        self._sweep_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and _is_properties_call(node.value):
                self._sweep_names.update(
                    target.id
                    for target in node.targets
                    if isinstance(target, ast.Name)
                )

    def _is_sweep(self, node: ast.AST) -> bool:
        """Whether a loop iterable walks a full property list."""
        if _is_properties_call(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._sweep_names
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"enumerate", "sorted", "list", "reversed"}
            and node.args
        ):
            return self._is_sweep(node.args[0])
        # refs[i + 1:] -- the upper-triangle idiom still sweeps refs.
        if isinstance(node, ast.Subscript):
            return self._is_sweep(node.value)
        return False

    def visit_For(self, node: ast.For, ctx) -> None:
        if not self._is_sweep(node.iter):
            return
        outer_names = _target_names(node.target)
        for inner in ast.walk(node):
            if inner is node or not isinstance(inner, ast.For):
                continue
            if not self._is_sweep(inner.iter):
                continue
            guard = self._source_compare(
                inner.body, outer_names, _target_names(inner.target)
            )
            if guard is not None:
                self._report(ctx, guard)

    def visit_ListComp(self, node, ctx) -> None:
        self._check_comprehension(node, ctx)

    def visit_SetComp(self, node, ctx) -> None:
        self._check_comprehension(node, ctx)

    def visit_GeneratorExp(self, node, ctx) -> None:
        self._check_comprehension(node, ctx)

    def _check_comprehension(self, node, ctx) -> None:
        generators = node.generators
        conditions = [cond for gen in generators for cond in gen.ifs]
        for index, outer in enumerate(generators):
            if not self._is_sweep(outer.iter):
                continue
            outer_names = _target_names(outer.target)
            for inner in generators[index + 1 :]:
                if not self._is_sweep(inner.iter):
                    continue
                guard = self._source_compare(
                    conditions, outer_names, _target_names(inner.target)
                )
                if guard is not None:
                    self._report(ctx, guard)
                    return

    @staticmethod
    def _source_compare(
        roots: list, outer_names: set[str], inner_names: set[str]
    ):
        """A ``a.source ==/!= b.source`` compare across the two loops."""
        for root in roots:
            for node in ast.walk(root):
                if not isinstance(node, ast.Compare):
                    continue
                if len(node.ops) != 1 or not isinstance(
                    node.ops[0], (ast.Eq, ast.NotEq)
                ):
                    continue
                names = [
                    side.value.id
                    for side in (node.left, node.comparators[0])
                    if isinstance(side, ast.Attribute)
                    and side.attr == "source"
                    and isinstance(side.value, ast.Name)
                ]
                if len(names) == 2 and (
                    (names[0] in outer_names and names[1] in inner_names)
                    or (names[0] in inner_names and names[1] in outer_names)
                ):
                    return node
        return None

    def _report(self, ctx, node) -> None:
        ctx.report(
            self,
            node,
            "quadratic cross-source pair enumeration -- use "
            "repro.data.pairs.build_pairs / cross_source_index_pairs, or "
            "a repro.blocking CandidatePolicy, so the run's configured "
            "candidate universe is the only pair universe",
        )


def _is_properties_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "properties"
    )

"""Span recorder and the benchmark-side wrappers that feed it.

Tracing lives in the benchmark, not in the program: :func:`install`
replaces the public functions of each layer with thin wrappers that
record one span per call (name, start, end, parent span, optional
request tag) into an in-memory :class:`Recorder`.  Spans are written
out only when the run ends.

Forked grid workers inherit the wrappers.  The first span a worker
records drops the parent's inherited buffer and registers a
``multiprocessing.util.Finalize`` that writes the worker's spans to
``<dump_dir>/spans-<pid>.json`` when the worker exits; the parent
merges those files after the pool is gone.

A layer whose function does not exist in the program under test is
skipped and reported as absent, so the benchmark keeps running against
later versions that rename or remove a layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

#: Header carrying the benchmark's request id, so a server-side handler
#: span can be matched with the client-side latency of the same request.
REQUEST_HEADER = "X-Bench-Request"

#: ``(module, attribute path, span name)`` of every traced layer.  A
#: ``None`` span name means ``<module without "repro.">.<attribute>``.
LAYERS: tuple[tuple[str, str, str | None], ...] = (
    ("repro.core.classifier", "LeapmeClassifier.fit", None),
    ("repro.core.classifier", "LeapmeClassifier.match_scores", None),
    ("repro.core.matcher", "LeapmeMatcher.score_pairs", None),
    ("repro.core.feature_cache", "PairUniverse.subset", None),
    ("repro.core.feature_cache", "PairUniverse.training_sample", None),
    ("repro.core.feature_cache", "PairUniverse.rows_of", None),
    ("repro.core.feature_cache", "PairFeatureStore.features", None),
    ("repro.core.feature_cache", "PairFeatureStore.scoring_features", None),
    ("repro.core.feature_cache", "PairFeatureStore.with_source", None),
    ("repro.core.pipeline", "FeaturePipeline.pair_matrix", None),
    ("repro.core.pipeline", "flush_persistent_distances", None),
    ("repro.serve.registry", "TenantRegistry.match_payload", None),
    ("repro.serve.registry", "TenantRegistry.predict_payload", None),
    ("repro.serve.registry", "TenantRegistry.create", None),
    ("repro.serve.registry", "TenantRegistry.add_source", None),
    ("repro.serve.registry", "TenantRegistry.remove", None),
    ("repro.serve.journal", "RegistryJournal.append", None),
    ("repro.serve.server", "_Handler.do_POST", "serve.server.handle"),
    ("repro.serve.server", "_Handler.do_DELETE", "serve.server.handle"),
    ("repro.evaluation.parallel", "_execute_item", "evaluation.parallel.worker"),
    ("repro.evaluation.parallel", "_prebuild_shared", "evaluation.parallel.parent"),
    (
        "repro.evaluation.parallel",
        "_ScoreResolver.resolve_pending",
        "evaluation.parallel.parent",
    ),
)

#: Span around entering ``AdmissionQueue.slot``: the admission wait.
ADMISSION_WAIT = "serve.admission.wait"
HANDLE = "serve.server.handle"


def span_name(module: str, attribute: str, name: str | None) -> str:
    return name if name is not None else f"{module.removeprefix('repro.')}.{attribute}"


def layer_names() -> list[str]:
    """Every span name :func:`install` can record, in declaration order."""
    names = [span_name(*layer) for layer in LAYERS] + [ADMISSION_WAIT]
    return list(dict.fromkeys(names))


class Recorder:
    """In-memory spans, one list per process, safe across threads.

    A span is ``(pid, id, parent_id, name, start, end, tag)``; ids are
    unique within one process, parents are the enclosing span on the
    same thread.
    """

    def __init__(self, dump_dir: Path | None = None) -> None:
        self.dump_dir = dump_dir
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def _adopt_fork(self) -> None:
        pid = os.getpid()
        if pid == self._pid:
            return
        # A forked worker: the parent's spans are not ours to report.
        self._pid = pid
        self.spans = []
        self._local = threading.local()
        if self.dump_dir is not None:
            multiprocessing.util.Finalize(
                None,
                self.dump,
                args=(self.dump_dir / f"spans-{pid}.json",),
                exitpriority=10,
            )

    def begin(self, name: str, tag: str | None = None) -> tuple:
        self._adopt_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, parent, name, tag, perf_counter())

    def end(self, token: tuple) -> None:
        end = perf_counter()
        span_id, parent, name, tag, start = token
        self._local.stack.pop()
        self.spans.append((self._pid, span_id, parent, name, start, end, tag))

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def load_spans(paths) -> list[tuple]:
    spans: list[tuple] = []
    for path in paths:
        spans.extend(tuple(span) for span in json.loads(Path(path).read_text()))
    return spans


def _traced(recorder: Recorder, name: str, func, tag_of=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        token = recorder.begin(name, tag_of(args) if tag_of else None)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(token)

    return traced


class _TimedSlot:
    """Wraps an admission slot so entering it is recorded as a span."""

    def __init__(self, recorder: Recorder, inner) -> None:
        self._recorder = recorder
        self._inner = inner

    def __enter__(self):
        token = self._recorder.begin(ADMISSION_WAIT)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.end(token)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def _request_tag(args) -> str | None:
    headers = getattr(args[0], "headers", None)
    return headers.get(REQUEST_HEADER) if headers is not None else None


def install(recorder: Recorder) -> tuple[list[str], "callable"]:
    """Wrap every layer present; returns ``(absent layers, uninstall)``."""
    patches: list[tuple[object, str, object]] = []
    absent: list[str] = []

    def patch(owner, attribute: str, replacement) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    for module_name, attribute, name in LAYERS:
        name = span_name(module_name, attribute, name)
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attribute}")
            continue
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(leaf)
        if original is None:
            absent.append(f"{module_name}.{attribute}")
            continue
        tag_of = _request_tag if name == HANDLE else None
        traced = _traced(recorder, name, original, tag_of)
        patch(owner, leaf, traced)
        if not path:
            # A module function imported by name elsewhere in the program
            # is the same object there; trace those references too.
            for other in list(sys.modules.values()):
                module_dict = getattr(other, "__dict__", {})
                if (
                    getattr(other, "__name__", "").startswith("repro")
                    and other is not owner
                    and module_dict.get(leaf) is original
                ):
                    patch(other, leaf, traced)

    try:
        admission = importlib.import_module("repro.serve.admission")
        queue_class = admission.AdmissionQueue
        slot = queue_class.__dict__["slot"]
    except (ImportError, AttributeError, KeyError):
        absent.append("repro.serve.admission.AdmissionQueue.slot")
    else:
        patch(
            queue_class,
            "slot",
            functools.wraps(slot)(
                lambda self, tenant: _TimedSlot(recorder, slot(self, tenant))
            ),
        )

    def uninstall() -> None:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)

    return absent, uninstall

"""Shared helpers for the ingestion suite: feed directories and writers."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import LshMatcher
from repro.blocking import CandidatePolicy
from repro.core import LeapmeMatcher
from repro.core.classical import ClassicalPairClassifier
from repro.evaluation.runner import RetryPolicy
from repro.ingest import FollowDaemon, IngestJournal, IngestPipeline
from repro.ml import DecisionTreeClassifier


def source_csv_text(source: str, props: dict[str, list[str]]) -> str:
    """Instances-CSV text for one source: ``{property: [values...]}``."""
    lines = ["source,property,entity,value"]
    for prop, values in props.items():
        for index, value in enumerate(values):
            lines.append(f"{source},{prop},e{index},{value}")
    return "\n".join(lines) + "\n"


def write_source(
    directory: Path, name: str, source: str, props: dict[str, list[str]]
) -> Path:
    """Drop a complete source CSV into a feed directory."""
    path = directory / name
    path.write_text(source_csv_text(source, props), encoding="utf-8")
    return path


#: Two disjoint sources describing the same two reference properties
#: with overlapping value sets, so even the unsupervised LSH matcher
#: links them confidently.
PROPS_A = {"weight": ["10 kg box", "20 kg box"], "color": ["deep red", "sky blue"]}
PROPS_B = {"wt": ["10 kg box", "20 kg box"], "colour": ["deep red", "sky blue"]}
PROPS_C = {"mass": ["10 kg box", "20 kg box"], "tint": ["deep red", "sky blue"]}


def fast_leapme(embeddings, blocking=None):
    """LEAPME with a deterministic classical classifier (test speed)."""
    return LeapmeMatcher(
        embeddings,
        classifier_factory=lambda: ClassicalPairClassifier(
            DecisionTreeClassifier(max_depth=4)
        ),
        candidate_policy=CandidatePolicy.from_label(blocking),
    )


@pytest.fixture()
def feed(tmp_path) -> Path:
    """An empty followed directory."""
    directory = tmp_path / "feed"
    directory.mkdir()
    return directory


def make_daemon(
    feed: Path,
    out_dir: Path,
    *,
    matcher=None,
    base=None,
    seed: int = 0,
    max_retries: int = 1,
    settle_polls: int = 2,
    clock=None,
    fault_plan=None,
    stop_event=None,
) -> FollowDaemon:
    """A fast-polling daemon over ``feed`` writing into ``out_dir``.

    LSH unless ``matcher`` is given, bootstrapped on ``base`` (none by
    default) with training seed ``seed``.
    """
    pipeline = IngestPipeline(
        matcher if matcher is not None else LshMatcher(),
        out_dir / "matches.csv",
        out_dir / "clusters.json",
        seed=seed,
    )
    pipeline.bootstrap(base)
    kwargs = {} if clock is None else {"clock": clock}
    return FollowDaemon(
        feed,
        pipeline,
        IngestJournal(out_dir / "ingest.journal"),
        poll_interval=0.005,
        settle_polls=settle_polls,
        retry_policy=RetryPolicy(max_retries=max_retries),
        fault_plan=fault_plan,
        stop_event=stop_event,
        **kwargs,
    )

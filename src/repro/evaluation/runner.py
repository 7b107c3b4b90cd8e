"""The experiment runner: repeated source splits, training, scoring.

Implements the protocol of Section V-B:

* "We take a fraction of the sources of a dataset (at random) for
  training.  We use the examples that involve two sources of data in the
  training set to train the classifier, and test it with the rest."
* "the training data consists of two negative pairs ... for every
  positive pair"
* "for each dataset, we ran LEAPME 25 times, using different random
  combinations of training sources" (repetitions are configurable; the
  benchmark defaults use fewer for wall-clock reasons and the paper
  value via the ``paper`` scale).

Fault tolerance
---------------
Long grids must survive bad repetitions and process kills:

* every repetition runs inside failure isolation -- an exception is
  retried under a :class:`RetryPolicy` (deterministic reseeding,
  exponential backoff hook) and, if retries are exhausted, recorded as a
  structured :class:`RepetitionFailure` instead of aborting siblings;
* with a :class:`~repro.evaluation.checkpoint.RunJournal`, each
  repetition's outcome is durably appended as it completes, and a rerun
  resumes from the journal, re-executing only what is missing or
  previously failed (journaled failures get a fresh attempt).  Because
  each repetition derives its randomness from ``(seed, repetition)``
  alone, a resumed grid is bit-identical to an uninterrupted one.

Performance
-----------
The grid is cache-aware and parallelisable:

* each dataset's cross-source pair universe is enumerated once
  (:class:`~repro.core.feature_cache.PairUniverse`), and every
  repetition's training and test sets are row arrays over it; matchers
  that support it share one full-width
  :class:`~repro.core.feature_cache.PairFeatureStore` per
  (dataset, embeddings) built on that universe, so the nine feature
  configurations become column slices of one matrix instead of nine
  recomputations, and a pair set's rows index the matrix directly;
* ``ExperimentRunner.run`` plans the grid as split items -- one
  (dataset, training-source count, repetition) with that split's
  pending cells -- and runs them through one engine
  (:mod:`repro.evaluation.parallel`): in-process at ``workers=1``, on
  a supervised process pool above that.  An item resolves the split's
  pair sets once, fits every cell (:func:`_run_split`) and scores the
  cells sharing a store in one pass that gathers and scales each row
  block once; each cell's outcome equals :func:`evaluate_matcher` on
  that cell alone.  Because repetition randomness derives only from
  ``(seed, repetition[, attempt])`` and the parent applies and
  journals outcomes in plan order, results and journals are
  byte-identical for every worker count;
* every executed repetition reports per-phase wall-clock
  (:class:`PhaseTimings`), aggregated on the
  :class:`ExperimentResult`, so speedups are measured rather than
  asserted (``scripts/bench_grid.py``).
"""

from __future__ import annotations

import hashlib
import logging
import time
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.api import Matcher
from repro.core.matcher import LeapmeMatcher, score_together
from repro.data.model import Dataset
from repro.data.pairs import sample_training_pairs
from repro.data.splits import repeated_source_splits, train_source_count
from repro.errors import ConfigurationError
from repro.evaluation.checkpoint import (
    QUARANTINE_REASONS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    JournalEntry,
    RunJournal,
    run_key,
)
from repro.evaluation.metrics import MatchQuality, evaluate_scores, mean_quality
from repro.nn.guards import assert_finite

_SKIP_NO_POSITIVES = "no positive/negative training pairs in split"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunSettings:
    """Protocol parameters for one experiment."""

    train_fraction: float = 0.2
    repetitions: int = 5
    negative_ratio: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1)")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.negative_ratio < 0:
            raise ConfigurationError("negative_ratio must be >= 0")


@dataclass(frozen=True)
class RetryPolicy:
    """How a failing repetition is retried before being recorded as failed.

    Each retry reseeds the training-pair sampler deterministically from
    ``(seed, repetition, attempt)``, so a transient numeric failure on
    one draw gets a genuinely different (but reproducible) draw, and two
    machines running the same grid behave identically.  ``backoff_base``
    seconds (doubling per attempt) are slept between attempts when
    positive -- the hook for rate-limited or I/O-bound matchers; the
    default of zero keeps tests and CPU-bound grids fast.

    ``jitter`` spreads concurrent retries apart: the delay before an
    attempt is stretched by up to ``jitter * 100`` percent, with the
    stretch a *pure function* of ``(seed, repetition, attempt)`` -- no
    global RNG is consulted -- so grids sleep identical amounts at every
    worker count.
    """

    max_retries: int = 1
    backoff_base: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ConfigurationError("backoff_base must be >= 0")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int, *, seed: int = 0, repetition: int = 0) -> float:
        """Seconds to wait before retry ``attempt`` (1-based).

        Exponential in ``attempt``; with ``jitter`` > 0 the result is
        ``base * (1 + jitter * u)`` where ``u`` in [0, 1) is derived by
        hashing ``(seed, repetition, attempt)``, making the delay
        deterministic and bounded by ``base * (1 + jitter)``.
        """
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * (2.0 ** (attempt - 1))
        if self.jitter <= 0:
            return base
        digest = hashlib.sha256(
            f"{seed}:{repetition}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter * fraction)


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase of executed repetitions.

    ``train`` and ``score`` exclude the feature-assembly share when the
    matcher reports it (``matcher.feature_seconds``), so the breakdown
    sums to roughly the repetition wall-clock without double counting.
    Timings are measurement, not protocol: they are never journaled and
    resumed repetitions contribute nothing.
    """

    pair_build: float = 0.0
    feature_assembly: float = 0.0
    train: float = 0.0
    score: float = 0.0

    def merge(self, other: "PhaseTimings") -> None:
        self.pair_build += other.pair_build
        self.feature_assembly += other.feature_assembly
        self.train += other.train
        self.score += other.score

    @property
    def total(self) -> float:
        return self.pair_build + self.feature_assembly + self.train + self.score

    def as_dict(self) -> dict[str, float]:
        return {
            "pair_build": self.pair_build,
            "feature_assembly": self.feature_assembly,
            "train": self.train,
            "score": self.score,
            "total": self.total,
        }


@dataclass(frozen=True)
class RepetitionFailure:
    """A repetition that exhausted its retries (structured, not a string)."""

    repetition: int
    error_type: str
    message: str
    attempts: int

    def describe(self) -> str:
        return (
            f"repetition {self.repetition}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s))"
        )


@dataclass
class ExperimentResult:
    """Per-repetition qualities for one (matcher, dataset, settings) cell."""

    matcher_name: str
    dataset_name: str
    settings: RunSettings
    qualities: list[MatchQuality] = field(default_factory=list)
    #: Repetitions that produced no quality: unusable training splits
    #: plus repetitions whose failures exhausted the retry policy.
    skipped_repetitions: int = 0
    #: Structured records for the failed subset of ``skipped_repetitions``.
    failures: list[RepetitionFailure] = field(default_factory=list)
    #: Repetitions that completed only via degraded training
    #: (reduced learning rate or classical-classifier fallback).
    degraded_repetitions: int = 0
    #: Repetitions restored from a journal instead of being re-run.
    resumed_repetitions: int = 0
    #: Per-phase wall-clock of the repetitions actually executed here.
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    #: Candidate-generation quality, set only when the cell ran against
    #: a blocked pair universe: fraction of true matches the policy kept
    #: (against the *full* ground truth) and fraction of the cross
    #: product pruned.  ``None`` under the null policy.
    pair_recall: float | None = None
    reduction_ratio: float | None = None
    #: Sources each repetition trains on
    #: (:func:`~repro.data.splits.train_source_count`): two fractions
    #: that round to the same count run the same splits.
    train_sources: int | None = None

    @property
    def precision(self) -> float:
        return mean_quality(self.qualities)[0]

    @property
    def recall(self) -> float:
        return mean_quality(self.qualities)[1]

    @property
    def f1(self) -> float:
        return mean_quality(self.qualities)[2]

    @property
    def f1_std(self) -> float:
        """Standard deviation of F1 across repetitions."""
        if not self.qualities:
            return 0.0
        return float(np.std([quality.f1 for quality in self.qualities]))

    @property
    def quarantined_repetitions(self) -> int:
        """Failures written by the pool supervisor (crash/timeout poison).

        A subset of ``failures``: repetitions that repeatedly killed or
        hung a worker process and were quarantined rather than retried
        forever.  Like all ``failed`` records they are re-attempted on a
        resumed run.
        """
        return sum(
            1
            for failure in self.failures
            if failure.error_type in QUARANTINE_REASONS
        )

    def as_row(self) -> dict:
        """Flat dict for table rendering."""
        row = {
            "system": self.matcher_name,
            "dataset": self.dataset_name,
            "train_fraction": self.settings.train_fraction,
            "train_sources": self.train_sources,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "f1_std": self.f1_std,
            "skipped": self.skipped_repetitions,
            "failed": len(self.failures),
            "quarantined": self.quarantined_repetitions,
        }
        if self.pair_recall is not None:
            row["pair_recall"] = self.pair_recall
        if self.reduction_ratio is not None:
            row["reduction_ratio"] = self.reduction_ratio
        return row

    def describe(self) -> str:
        """One-line summary, with the effective training-source count."""
        sources = (
            ""
            if self.train_sources is None
            else f" ({self.train_sources} train sources)"
        )
        text = (
            f"{self.matcher_name} on {self.dataset_name} "
            f"@{self.settings.train_fraction:.0%}{sources}: "
            f"P={self.precision:.2f} R={self.recall:.2f} F1={self.f1:.2f} "
            f"({len(self.qualities)} reps)"
        )
        health = []
        if self.skipped_repetitions:
            health.append(f"{self.skipped_repetitions} skipped")
        if self.quarantined_repetitions:
            health.append(f"{self.quarantined_repetitions} quarantined")
        if self.degraded_repetitions:
            health.append(f"{self.degraded_repetitions} degraded")
        if self.resumed_repetitions:
            health.append(f"{self.resumed_repetitions} resumed")
        if health:
            text += f" [{', '.join(health)}]"
        if self.pair_recall is not None and self.reduction_ratio is not None:
            text += (
                f" (blocking: pair recall {self.pair_recall:.2%}, "
                f"reduction {self.reduction_ratio:.2%})"
            )
        return text


@dataclass(frozen=True)
class _Outcome:
    """Internal: what one repetition produced after isolation/retries.

    Fully picklable (errors are carried as strings, not exception
    objects) so parallel workers can ship outcomes back to the parent.
    """

    status: str
    quality: MatchQuality | None = None
    degradation: str | None = None
    attempts: int = 1
    error_type: str | None = None
    error_message: str | None = None
    timings: PhaseTimings | None = None


def _matcher_feature_seconds(matcher: Matcher) -> float:
    seconds = getattr(matcher, "feature_seconds", 0.0)
    return seconds if isinstance(seconds, (int, float)) else 0.0


def blocked_test_quality(
    quality: MatchQuality, universe, train_sources: list[str]
) -> MatchQuality:
    """Fold pruned true matches of the test slice into the quality.

    Under a blocking policy the scored test pairs come from the pruned
    universe, so a true match the blocker never proposed would otherwise
    vanish from the denominator.  Counting every pruned true pair of the
    held-out slice as a false negative keeps recall -- and therefore F1
    -- honest against the full ground truth.  A no-op under the null
    policy (``missed_true_pairs`` is zero by construction).
    """
    missed = universe.missed_true_pairs(train_sources, within=False)
    if not missed:
        return quality
    return MatchQuality(
        true_positives=quality.true_positives,
        false_positives=quality.false_positives,
        false_negatives=quality.false_negatives + missed,
    )


def _notify(matcher: Matcher, repetition: int, attempt: int) -> None:
    notify = getattr(matcher, "notify_repetition", None)
    if notify is not None:
        notify(repetition, attempt)


def _pair_sets(
    universe,
    train_sources: list[str],
    settings: RunSettings,
    repetition: int,
    attempt: int,
    supervised: bool,
    timings: PhaseTimings,
):
    """The test set and, when ``supervised``, the attempt's training sample."""
    started = perf_counter()
    test = universe.subset(train_sources, within=False)
    training = None
    if supervised:
        # Attempt 1 reproduces the historical stream exactly; retries
        # get a deterministic fresh draw.
        sample_seed = (settings.seed, repetition, 1709 + (attempt - 1))
        training = sample_training_pairs(
            universe.subset(train_sources, within=True),
            settings.negative_ratio,
            np.random.default_rng(list(sample_seed)),
        )
    timings.pair_build += perf_counter() - started
    return test, training


def _one_class(training) -> bool:
    labels = training.labels()
    return not labels.any() or labels.all()


def _skipped(timings: PhaseTimings) -> _Outcome:
    # A skip is a data verdict, journaled with the default attempts=1
    # whichever attempt reached it.
    return _Outcome(
        status=STATUS_SKIPPED,
        error_type="skip",
        error_message=_SKIP_NO_POSITIVES,
        timings=timings,
    )


def _less_features(timings: PhaseTimings, elapsed: float, feature_share: float) -> float:
    """Book ``feature_share`` as feature assembly; return the rest of ``elapsed``."""
    timings.feature_assembly += feature_share
    return max(0.0, elapsed - feature_share)


def _fit(matcher: Matcher, dataset: Dataset, training, timings: PhaseTimings) -> None:
    before = _matcher_feature_seconds(matcher)
    started = perf_counter()
    matcher.fit(dataset, training)
    elapsed = perf_counter() - started
    share = _matcher_feature_seconds(matcher) - before
    timings.train += _less_features(timings, elapsed, share)


def _score(matcher: Matcher, dataset: Dataset, test, timings: PhaseTimings) -> np.ndarray:
    before = _matcher_feature_seconds(matcher)
    started = perf_counter()
    scores = matcher.score_pairs(dataset, test)
    elapsed = perf_counter() - started
    share = _matcher_feature_seconds(matcher) - before
    timings.score += _less_features(timings, elapsed, share)
    return scores


def _verdict(
    matcher: Matcher,
    scores: np.ndarray,
    test,
    universe,
    train_sources: list[str],
    attempt: int,
    timings: PhaseTimings,
) -> _Outcome:
    assert_finite(scores, "similarity scores")
    quality = evaluate_scores(scores, test.labels(), matcher.threshold)
    if universe.is_blocked:
        quality = blocked_test_quality(quality, universe, train_sources)
    return _Outcome(
        status=STATUS_OK,
        quality=quality,
        degradation=getattr(matcher, "last_degradation", None),
        attempts=attempt,
        timings=timings,
    )


def _run_repetition(
    matcher: Matcher,
    dataset: Dataset,
    settings: RunSettings,
    repetition: int,
    split,
    retry_policy: RetryPolicy,
    sleep,
    universe,
    *,
    first_attempt: int = 1,
    timings: PhaseTimings | None = None,
    error: Exception | None = None,
) -> _Outcome:
    """One repetition under failure isolation and the retry policy.

    Only :class:`Exception` is caught: ``KeyboardInterrupt`` and other
    ``BaseException`` kills (including the fault harness's simulated
    ones) propagate, exactly like a real ``SIGKILL`` would end the
    process -- the journal then carries the completed prefix.

    Pair sets are row arrays over ``universe`` (the
    :class:`~repro.core.feature_cache.PairUniverse` of ``dataset``):
    the test set and the training candidates are two subsets of the
    one-time enumeration, and the training sample is an index draw
    from the candidates.

    :func:`evaluate_matcher` and the grid engine both run this
    function to the end: a repetition is fitted and scored in the same
    process, so a pool's ``--cell-timeout`` deadline covers the score
    phase too.  :func:`_run_split` continues a matcher whose shared
    attempt 1 raised ``error`` here from ``first_attempt=2``, with the
    ``timings`` that attempt booked.
    """
    train_sources = list(split.train_sources)
    timings = timings if timings is not None else PhaseTimings()
    last_error = error
    attempts_made = first_attempt - 1
    for attempt in range(first_attempt, retry_policy.max_attempts + 1):
        attempts_made = attempt
        if attempt > 1:
            delay = retry_policy.delay(
                attempt - 1, seed=settings.seed, repetition=repetition
            )
            if delay > 0:
                sleep(delay)
        try:
            _notify(matcher, repetition, attempt)
            test, training = _pair_sets(
                universe,
                train_sources,
                settings,
                repetition,
                attempt,
                matcher.is_supervised,
                timings,
            )
            if training is not None:
                if _one_class(training):
                    return _skipped(timings)
                _fit(matcher, dataset, training, timings)
            scores = _score(matcher, dataset, test, timings)
            return _verdict(
                matcher, scores, test, universe, train_sources, attempt, timings
            )
        except Exception as failure:  # noqa: BLE001 -- isolation boundary
            last_error = failure
    return _Outcome(
        status=STATUS_FAILED,
        error_type=type(last_error).__name__,
        error_message=str(last_error),
        attempts=attempts_made,
        timings=timings,
    )


def _scores_together(matcher: Matcher) -> bool:
    """Whether ``matcher`` scores through ``LeapmeMatcher.score_pairs``."""
    return getattr(type(matcher), "score_pairs", None) is LeapmeMatcher.score_pairs


def _run_split(
    matchers: list[Matcher],
    dataset: Dataset,
    settings: RunSettings,
    repetition: int,
    split,
    retry_policy: RetryPolicy,
    sleep,
    universe,
) -> list[_Outcome]:
    """Every matcher's repetition on one source split, sharing attempt 1.

    The test set and the attempt-1 training sample are resolved once.
    Each matcher then runs ``notify_repetition`` and fits on the shared
    sample (a sample with one class skips every supervised matcher),
    and the matchers that score through ``LeapmeMatcher.score_pairs``
    are scored in one :func:`~repro.core.matcher.score_together` pass;
    if that pass raises, each of them scores itself.  A matcher whose
    attempt 1 raises continues its own retry loop in
    :func:`_run_repetition` from attempt 2, so each outcome equals
    :func:`_run_repetition` on that matcher alone.  The shared pair
    build and score pass are booked to the matchers in equal shares.
    """
    train_sources = list(split.train_sources)
    timings = [PhaseTimings() for _ in matchers]
    outcomes: list[_Outcome | None] = [None] * len(matchers)
    errors: dict[int, Exception] = {}
    resolved = PhaseTimings()
    pair_sets = None
    fitted: list[int] = []
    for index, matcher in enumerate(matchers):
        try:
            _notify(matcher, repetition, 1)
            if pair_sets is None:
                pair_sets = _pair_sets(
                    universe,
                    train_sources,
                    settings,
                    repetition,
                    1,
                    any(other.is_supervised for other in matchers),
                    resolved,
                )
            test, training = pair_sets
            if matcher.is_supervised:
                if _one_class(training):
                    outcomes[index] = _skipped(timings[index])
                    continue
                _fit(matcher, dataset, training, timings[index])
            fitted.append(index)
        except Exception as failure:  # noqa: BLE001 -- isolation boundary
            errors[index] = failure
    for booked in timings:
        booked.pair_build += resolved.pair_build / len(matchers)

    test = pair_sets[0] if pair_sets is not None else None
    scores: dict[int, np.ndarray] = {}
    together = [index for index in fitted if _scores_together(matchers[index])]
    if together:
        members = [matchers[index] for index in together]
        before = [_matcher_feature_seconds(matcher) for matcher in members]
        started = perf_counter()
        try:
            passed = score_together(members, dataset, test)
        except Exception as failure:  # noqa: BLE001 -- each scores itself below
            logger.debug("shared score pass failed, scoring alone: %s", failure)
        else:
            each = (perf_counter() - started) / len(members)
            for index, matcher, seconds, result in zip(
                together, members, before, passed
            ):
                share = _matcher_feature_seconds(matcher) - seconds
                timings[index].score += _less_features(timings[index], each, share)
                scores[index] = result
    for index in fitted:
        matcher = matchers[index]
        try:
            result = scores.get(index)
            if result is None:
                result = _score(matcher, dataset, test, timings[index])
            outcomes[index] = _verdict(
                matcher, result, test, universe, train_sources, 1, timings[index]
            )
        except Exception as failure:  # noqa: BLE001 -- isolation boundary
            errors[index] = failure
    for index in sorted(errors):
        outcomes[index] = _run_repetition(
            matchers[index],
            dataset,
            settings,
            repetition,
            split,
            retry_policy,
            sleep,
            universe,
            first_attempt=2,
            timings=timings[index],
            error=errors[index],
        )
    return outcomes


def _apply_outcome(
    result: ExperimentResult, repetition: int, outcome: _Outcome
) -> None:
    """Fold one executed repetition's outcome into the cell result."""
    if outcome.status == STATUS_OK:
        result.qualities.append(outcome.quality)
        if outcome.degradation is not None:
            result.degraded_repetitions += 1
    else:
        result.skipped_repetitions += 1
    if outcome.status == STATUS_FAILED:
        result.failures.append(
            RepetitionFailure(
                repetition=repetition,
                error_type=outcome.error_type or "Exception",
                message=outcome.error_message or "",
                attempts=outcome.attempts,
            )
        )
    if outcome.timings is not None:
        result.timings.merge(outcome.timings)


def _journal_outcome(
    journal: RunJournal, key: str, repetition: int, outcome: _Outcome
) -> None:
    """Durably append one executed outcome (evaluate_matcher and the grid)."""
    journal.append(
        JournalEntry(
            key=key,
            repetition=repetition,
            status=outcome.status,
            quality=outcome.quality,
            degradation=outcome.degradation,
            attempts=outcome.attempts,
            error_type=outcome.error_type,
            error=outcome.error_message,
        )
    )


def _apply_journal_entry(result: ExperimentResult, entry: JournalEntry) -> None:
    """Restore one journaled ``ok``/``skipped`` outcome into the result.

    ``failed`` entries are never restored -- the resume loop re-runs
    them, because a rerun is the natural recovery move after transient
    failures (possibly with a more generous retry policy), and
    last-record-wins means the fresh outcome supersedes the old one.
    """
    result.resumed_repetitions += 1
    if entry.status == STATUS_OK and entry.quality is not None:
        result.qualities.append(entry.quality)
        if entry.degradation is not None:
            result.degraded_repetitions += 1
    else:
        result.skipped_repetitions += 1


def evaluate_matcher(
    matcher: Matcher,
    dataset: Dataset,
    settings: RunSettings | None = None,
    *,
    journal: RunJournal | None = None,
    resume: bool = True,
    retry_policy: RetryPolicy | None = None,
    sleep=time.sleep,
    label: str | None = None,
) -> ExperimentResult:
    """Run the paper's repeated-split protocol for one matcher.

    Supervised matchers are re-fitted per repetition on 2:1
    negative-sampled training pairs from the training sources;
    unsupervised matchers are scored directly.  The test side is *all*
    pairs involving at least one held-out source (no sampling).

    Repetitions whose random training split contains no positive pair
    (possible on tiny datasets) are skipped and counted in
    ``skipped_repetitions``; repetitions that raise are retried under
    ``retry_policy`` and recorded in ``failures`` (never aborting their
    siblings).  With ``journal`` set, every outcome is durably appended
    as it completes, and ``resume=True`` (the default) restores already
    journaled ``ok``/``skipped`` repetitions instead of re-running them;
    journaled *failures* are re-attempted (so rerunning with a higher
    ``max_retries`` actually retries them) and the fresh outcome
    supersedes the old record.

    ``label`` names the run cell (result and journal key) without
    mutating ``matcher.name``.  Pair sets come from the matcher's own
    null-policy store universe, or from a null-policy enumeration of
    ``dataset``.  Preparation is lazy: ``matcher.prepare(dataset)`` runs
    before the first repetition that actually executes, so a fully
    journaled rerun builds nothing.  Grids of matchers, and blocked
    candidate policies, run through :class:`ExperimentRunner`.
    """
    settings = settings if settings is not None else RunSettings()
    retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
    cell_name = label if label is not None else matcher.name
    result = ExperimentResult(
        matcher_name=cell_name,
        dataset_name=dataset.name,
        settings=settings,
        train_sources=train_source_count(
            len(dataset.sources()), settings.train_fraction
        ),
    )
    key = run_key(cell_name, dataset, settings) if journal is not None else None
    done = journal.entries(key) if (journal is not None and resume) else {}
    splits = repeated_source_splits(
        dataset, settings.train_fraction, settings.repetitions, settings.seed
    )
    universe = None
    for repetition, split in enumerate(splits):
        entry = done.get(repetition)
        if entry is not None and entry.status != STATUS_FAILED:
            _apply_journal_entry(result, entry)
            continue
        if universe is None:
            matcher.prepare(dataset)
            universe = _own_universe(matcher, dataset)
        outcome = _run_repetition(
            matcher,
            dataset,
            settings,
            repetition,
            split,
            retry_policy,
            sleep,
            universe=universe,
        )
        _apply_outcome(result, repetition, outcome)
        if journal is not None:
            _journal_outcome(journal, key, repetition, outcome)
    return result


def _own_universe(matcher: Matcher, dataset: Dataset):
    """The null-policy pair universe of a one-matcher evaluation.

    A prepared matcher's store universe serves when its policy is
    null, so the pair sets index the store's rows directly; otherwise
    (no store, or a blocked one) the dataset's full enumeration is
    built, exactly the pairs ``build_pairs`` yields.
    """
    from repro.core.feature_cache import PairUniverse

    store = getattr(matcher, "store", None)
    universe = getattr(store, "universe", None)
    if (
        universe is not None
        and not universe.is_blocked
        and universe.dataset_fingerprint == dataset.fingerprint()
    ):
        return universe
    return PairUniverse(dataset)


def _reject_duplicate_cells(
    datasets: list[Dataset], train_fractions: tuple[float, ...] | list[float]
) -> None:
    """Refuse a grid that lists one cell twice.

    Two cells with one (matcher, dataset content, fraction) share a
    journal key: both would journal every repetition, and a resumed
    run would restore both from the one key.
    """
    seen_fractions: set[float] = set()
    for fraction in train_fractions:
        if fraction in seen_fractions:
            raise ConfigurationError(
                f"train fraction {fraction} is listed twice: every cell of "
                "that fraction would run and journal twice"
            )
        seen_fractions.add(fraction)
    seen_datasets: dict[str, str] = {}
    for dataset in datasets:
        fingerprint = dataset.fingerprint()
        if fingerprint in seen_datasets:
            raise ConfigurationError(
                f"dataset {dataset.name!r} is listed twice (same content as "
                f"{seen_datasets[fingerprint]!r}): every cell of it would run "
                "and journal twice"
            )
        seen_datasets[fingerprint] = dataset.name


def _warn_collapsing_fractions(
    datasets: list[Dataset], train_fractions: tuple[float, ...] | list[float]
) -> None:
    """Warn when two fractions train on the same number of sources.

    :func:`~repro.data.splits.split_sources` rounds and clamps the
    training-source count, so on a 10-source dataset 0.1 and 0.2 both
    train on 2 sources: under one seed their repetitions draw the same
    splits, and the grid runs one experiment twice.
    """
    for dataset in datasets:
        n_sources = len(dataset.sources())
        seen: dict[int, float] = {}
        for fraction in train_fractions:
            n_train = train_source_count(n_sources, fraction)
            if n_train in seen:
                warnings.warn(
                    f"dataset {dataset.name!r}: train fractions {seen[n_train]} "
                    f"and {fraction} both train on {n_train} of {n_sources} "
                    "sources, so their cells repeat the same splits",
                    UserWarning,
                    stacklevel=3,
                )
            else:
                seen[n_train] = fraction


class ExperimentRunner:
    """Sweep matchers across datasets and training fractions.

    The runner holds matcher *factories* rather than instances so every
    cell starts from a pristine matcher (classifier state must not leak
    between cells).  The expensive per-dataset artefacts -- the pair
    universe and, for matchers that support it, the full-width
    pair-feature store -- are built once per (dataset, embeddings) in
    each executing process and shared across all cells of that dataset.
    """

    def __init__(self, matcher_factories: dict[str, "callable"]) -> None:
        if not matcher_factories:
            raise ConfigurationError("need at least one matcher factory")
        self._factories = dict(matcher_factories)

    def run(
        self,
        datasets: list[Dataset],
        train_fractions: tuple[float, ...] | list[float] = (0.2, 0.8),
        repetitions: int = 5,
        seed: int = 0,
        negative_ratio: float = 2.0,
        journal: RunJournal | None = None,
        resume: bool = True,
        retry_policy: RetryPolicy | None = None,
        workers: int = 1,
        supervisor=None,
        policy=None,
    ) -> list[ExperimentResult]:
        """Run the full grid; returns one result per cell.

        A cell that fails entirely cannot happen: failures are isolated
        per repetition under ``retry_policy``.  With a journal, a killed
        grid rerun with ``resume=True`` recomputes only the missing
        repetitions of the missing cells.

        Every worker count runs one plan of split items, one per
        (dataset, training-source count, repetition)
        (:func:`~repro.evaluation.parallel.run_grid`): ``workers=1``
        runs them in this process, ``workers > 1`` on a supervised
        process pool.  Results and journals are byte-identical across
        worker counts because the parent applies outcomes in plan order
        (dataset, fraction, repetition, matcher) and every repetition's
        randomness derives from ``(seed, repetition)`` alone.
        ``supervisor`` (a
        :class:`~repro.evaluation.supervisor.SupervisorPolicy`) tunes
        the pool's failure model: per-(cell, repetition) deadlines,
        respawn budget, poison quarantine.  A ``cell_timeout`` needs
        ``workers >= 2``: nothing in-process can enforce a deadline.

        Listing a fraction or a dataset twice raises
        :class:`~repro.errors.ConfigurationError`: the repeated cells
        would share one journal key.  Fractions that round to one
        training-source count still warn, since their rows report one
        experiment twice, but run it once.

        ``policy`` (a :class:`~repro.blocking.CandidatePolicy`) prunes
        every dataset's pair universe before any cell runs: training
        and test pairs come from the candidates only, pruned true
        matches count as false negatives, and each result carries
        ``pair_recall``/``reduction_ratio``.
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if (
            workers == 1
            and supervisor is not None
            and supervisor.cell_timeout is not None
        ):
            raise ConfigurationError(
                "a cell timeout needs workers >= 2: an in-process grid "
                "cannot enforce a deadline"
            )
        _reject_duplicate_cells(datasets, train_fractions)
        _warn_collapsing_fractions(datasets, train_fractions)
        from repro.evaluation.parallel import run_grid

        return run_grid(
            self._factories,
            datasets,
            train_fractions=tuple(train_fractions),
            repetitions=repetitions,
            seed=seed,
            negative_ratio=negative_ratio,
            journal=journal,
            resume=resume,
            retry_policy=retry_policy,
            workers=workers,
            supervisor=supervisor,
            candidate_policy=policy,
        )

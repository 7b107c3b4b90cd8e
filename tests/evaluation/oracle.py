"""The independent one-matcher repetition loop the grid is tested against.

``evaluate_matcher`` is a one-cell grid: it runs through the same engine
as every :class:`~repro.evaluation.ExperimentRunner` grid, so comparing
a grid with it compares the engine with itself.  This is the loop it
was before, kept verbatim: its own splits, journaling, resume, lazy
prepare and universe, running each repetition to the end through
:func:`~repro.evaluation.runner._run_repetition` -- no split items, no
shared store, no shared score pass.  A grid cell must equal it.
"""

from __future__ import annotations

import time

from repro.core.api import Matcher
from repro.data.model import Dataset
from repro.data.splits import repeated_source_splits, train_source_count
from repro.evaluation.checkpoint import STATUS_FAILED, RunJournal, run_key
from repro.evaluation.runner import (
    ExperimentResult,
    RetryPolicy,
    RunSettings,
    _apply_journal_entry,
    _apply_outcome,
    _journal_outcome,
    _run_repetition,
)


def evaluate_one_matcher(
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

"""The fusion pipeline behind follow mode: featurize, then fuse.

One admitted source file becomes one *batch*.  The pipeline splits a
batch's work at the same boundary the ingestion journal records:

``featurize``
    loads the CSV, merges it into the cumulative dataset, enumerates the
    *new* cross-source pairs and scores them -- all the expensive,
    failure-prone work, but no externally visible state yet;
``fuse``
    folds the scored batch into the incremental property clusters and
    atomically rewrites the two outputs (matches CSV, clusters JSON).

Every step is deterministic given the bootstrap inputs and the sequence
of fused files: scoring uses seeded sampling only at bootstrap, cluster
growth is the greedy order-stable :class:`IncrementalClusterer`, and
the outputs are rewritten in full (sorted clusters, fusion-ordered
match rows) rather than appended.  That is what makes ``--resume`` a
*replay*: feeding the journal's fused files through a freshly
bootstrapped pipeline, in fusion order, lands on byte-identical output
files -- the acceptance invariant the chaos suite pins with SIGKILL.

For the LEAPME systems the pipeline rides the feature store's
incremental path (:meth:`LeapmeMatcher.add_source`): only the new
source's property rows and the new pairs are featurized.  Every other
matcher takes the generic path (merge, enumerate, score), which needs
no store and -- for unsupervised matchers -- no bootstrap dataset at
all.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.matcher import LeapmeMatcher
from repro.core.pipeline import flush_persistent_distances
from repro.data.csvio import load_dataset_csv
from repro.data.model import Dataset
from repro.data.pairs import LabeledPair, build_pairs, sample_training_pairs
from repro.errors import ConfigurationError, DataError
from repro.graph.incremental import IncrementalClusterer
from repro.ioutils import atomic_open_text, atomic_write_text

#: Column header of the matches CSV -- identical to ``repro match`` so
#: downstream consumers parse follow-mode output with the same code.
MATCH_COLUMNS = (
    "left_source", "left_property", "right_source", "right_property", "score",
)


@dataclass(frozen=True)
class PreparedBatch:
    """A featurized-but-not-yet-fused source file.

    Everything :meth:`IngestPipeline.fuse` needs, precomputed so the
    journal can durably record ``featurized`` before any output state
    changes.  ``pairs``/``scores`` cover only the *new* cross-source
    pairs the addition introduces.
    """

    file: str
    fingerprint: str
    addition: Dataset
    merged: Dataset
    pairs: tuple[LabeledPair, ...]
    scores: np.ndarray

    @property
    def properties(self) -> int:
        """New properties this batch contributes."""
        return len(self.addition.properties())


class IngestPipeline:
    """Deterministic source-at-a-time fusion into matches + clusters.

    Parameters
    ----------
    matcher:
        Any :class:`~repro.core.api.Matcher`.  Supervised matchers must
        be trained via :meth:`bootstrap` before the first batch;
        unsupervised ones may start from an empty state.
    matches_path / clusters_path:
        Output files, atomically rewritten after every fused batch.
    threshold:
        Match-acceptance score (defaults to the matcher's own).
    seed:
        Seeds the bootstrap training-pair sample (REP001: the only
        randomness in the whole follow pipeline).
    linkage:
        Cluster linkage, as in :class:`IncrementalClusterer`.
    """

    def __init__(
        self,
        matcher,
        matches_path: str | Path,
        clusters_path: str | Path,
        threshold: float | None = None,
        seed: int = 0,
        linkage: str = "max",
    ) -> None:
        self.matcher = matcher
        self.matches_path = Path(matches_path)
        self.clusters_path = Path(clusters_path)
        self.threshold = threshold if threshold is not None else matcher.threshold
        self.seed = seed
        self.linkage = linkage
        self.clusterer: IncrementalClusterer | None = None
        #: Accepted match rows in fusion order; rewritten in full each
        #: fuse so the file never depends on *when* crashes happened.
        self._match_rows: list[tuple[str, str, str, str, str]] = []
        self._fused_batches = 0

    # -- bootstrap -----------------------------------------------------------
    def bootstrap(self, base: Dataset | None) -> None:
        """Prepare (and for supervised matchers, train) on ``base``.

        With a base dataset, its sources are integrated into the initial
        clusters; match rows are emitted only for *streamed* batches --
        the base is trusted input, not something to re-match.  Without
        one, a supervised matcher has nothing to learn from and is
        rejected up front rather than failing on the first batch.
        """
        if base is None:
            if self.matcher.is_supervised:
                raise ConfigurationError(
                    f"{self.matcher.name} is supervised: follow mode needs "
                    "a bootstrap dataset with an alignment to train on "
                    "(--bootstrap-instances/--bootstrap-alignment), or use "
                    "an unsupervised system"
                )
            return
        self.matcher.prepare(base)
        if self.matcher.is_supervised:
            rng = np.random.default_rng(self.seed)
            candidates = self._bootstrap_candidates(base)
            training = sample_training_pairs(candidates, rng=rng)
            if not training.positives():
                raise ConfigurationError(
                    "no positive training pairs in the bootstrap dataset; "
                    "provide an alignment file"
                )
            self.matcher.fit(base, training)
        self.clusterer = IncrementalClusterer(
            self.matcher, base, threshold=self.threshold, linkage=self.linkage
        )
        self.clusterer.add_all()

    def _bootstrap_candidates(self, base: Dataset):
        """Training candidates for the bootstrap fit.

        A matcher with a store trains on its universe (the same
        candidates it will score: the pruned ones under a blocking
        policy, every cross-source pair under the null one), which is
        what keeps warm restarts and incremental ingestion
        bit-identical to a cold rebuild.  Other matchers enumerate with
        ``build_pairs``.
        """
        store = getattr(self.matcher, "store", None)
        if store is not None and store.serves(base):
            return store.universe.subset()
        return build_pairs(base)

    # -- featurize -----------------------------------------------------------
    def featurize(
        self,
        path: Path,
        alignment_path: Path | None,
        fingerprint: str,
    ) -> PreparedBatch:
        """Load, merge, and score one admitted source file.

        Raises the loader's :class:`~repro.errors.TransientDataError` /
        :class:`~repro.errors.DataError` unchanged -- the daemon maps
        those onto retry vs. quarantine.  A source whose names are
        already integrated raises :class:`DataError` *before* any state
        is touched, so duplicate drops quarantine cleanly.
        """
        addition = load_dataset_csv(path, alignment_path, name=path.stem)
        if not addition.sources():
            raise DataError(f"no usable rows in {path}")
        if self.clusterer is None:
            merged = addition
            self.matcher.prepare(merged)
            pairs = build_pairs(merged)
        else:
            existing = self.clusterer.dataset.sources()
            overlap = set(addition.sources()) & set(existing)
            if overlap:
                raise DataError(
                    f"sources already present in dataset: {sorted(overlap)}"
                )
            if isinstance(self.matcher, LeapmeMatcher):
                pairs = self.matcher.add_source(addition)
                merged = self.matcher.store.universe.dataset
            else:
                merged = self.clusterer.dataset.merged_with(addition)
                self.matcher.prepare(merged)
                pairs = build_pairs(merged, existing, within=False)
        if pairs and not self.matcher.is_fitted:
            raise ConfigurationError(
                f"{self.matcher.name} is not fitted; bootstrap before "
                "featurizing batches"
            )
        scores = self.matcher.score_pairs(merged, pairs) if pairs else np.zeros(0)
        return PreparedBatch(
            file=path.name,
            fingerprint=fingerprint,
            addition=addition,
            merged=merged,
            pairs=tuple(pairs),
            scores=scores,
        )

    # -- fuse ----------------------------------------------------------------
    def fuse(self, batch: PreparedBatch) -> dict[str, int]:
        """Fold a prepared batch into clusters and rewrite the outputs."""
        if self.clusterer is None:
            self.clusterer = IncrementalClusterer(
                self.matcher,
                batch.merged,
                threshold=self.threshold,
                linkage=self.linkage,
            )
            changes = self.clusterer.add_all()
        else:
            changes = self.clusterer.add_dataset(batch.addition, merged=batch.merged)
        kept = 0
        for pair, score in zip(batch.pairs, batch.scores):
            if score >= self.threshold:
                self._match_rows.append(
                    (
                        pair.left.source,
                        pair.left.name,
                        pair.right.source,
                        pair.right.name,
                        f"{float(score):.4f}",
                    )
                )
                kept += 1
        self._fused_batches += 1
        self._write_outputs()
        return {
            "order": self._fused_batches,
            "matches": kept,
            "joined": changes["joined"],
            "founded": changes["founded"],
        }

    def _write_outputs(self) -> None:
        """Atomically rewrite matches CSV and clusters JSON (REP002).

        Full rewrites, not appends: the files depend only on the fused
        sequence, never on how many times the process died in between.
        """
        with atomic_open_text(self.matches_path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(MATCH_COLUMNS)
            writer.writerows(self._match_rows)
        atomic_write_text(self.clusters_path, self._clusters_json())
        # Same durability boundary for the name-distance kernel cache:
        # rows computed for this batch survive a kill right after the
        # batch's outputs do.  No-op unless serve wired a cache.
        flush_persistent_distances()

    def _clusters_json(self) -> str:
        assert self.clusterer is not None
        clusters = sorted(
            sorted(f"{ref.source}|{ref.name}" for ref in cluster)
            for cluster in self.clusterer.clusters()
        )
        payload = {
            "threshold": self.threshold,
            "linkage": self.linkage,
            "sources": self.clusterer.integrated_sources,
            "clusters": clusters,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @property
    def fused_batches(self) -> int:
        """Batches fused so far (the journal's ``order`` counter)."""
        return self._fused_batches

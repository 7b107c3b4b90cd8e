"""The fusion pipeline behind follow mode: featurize, then fuse.

One admitted source file becomes one *batch*.  The pipeline splits a
batch's work at the same boundary the ingestion journal records:

``featurize``
    loads the CSV and grows a *successor* matcher over the merged
    dataset (:meth:`~repro.core.api.Matcher.with_source`), which
    enumerates the new candidate pairs; then scores them -- all the
    expensive, failure-prone work, and no externally visible state:
    the live matcher, clusters and outputs are untouched;
``fuse``
    builds the successor clusters and match rows, atomically rewrites
    the two outputs (matches CSV, clusters JSON) from them, and only
    then swaps the successor state in.  A failure anywhere before the
    swap leaves the pipeline as it was, so a retry redoes the batch.

Every step is deterministic given the bootstrap inputs and the sequence
of fused files: scoring uses seeded sampling only at bootstrap, cluster
growth is the greedy order-stable :class:`IncrementalClusterer`, and
the outputs are rewritten in full (sorted clusters, fusion-ordered
match rows) rather than appended.  That is what makes ``--resume`` a
*replay*: feeding the journal's fused files through a freshly
bootstrapped pipeline, in fusion order, lands on byte-identical output
files -- the acceptance invariant the chaos suite pins with SIGKILL.

Every matcher grows through the same copy-on-swap call the service's
reload uses.  For the LEAPME systems it is the feature store's delta:
only the new source's property rows and the new pairs are featurized.
Other matchers re-prepare a shallow copy on the merged dataset, and
unsupervised ones need no bootstrap dataset at all.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.pipeline import flush_persistent_distances
from repro.data.csvio import load_source_csv
from repro.data.model import Dataset
from repro.data.pairs import PairSet, sample_training_pairs
from repro.errors import ConfigurationError
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
    changes.  ``matcher`` is the successor prepared on ``merged``;
    ``pairs``/``scores`` cover only the *new* candidate pairs the
    addition introduces.
    """

    file: str
    fingerprint: str
    addition: Dataset
    merged: Dataset
    matcher: object
    pairs: PairSet
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
            # Train on the matcher's own candidates (a store's universe
            # for LEAPME): the pairs it will score, which keeps warm
            # restarts and streaming bit-identical to a cold rebuild.
            training = sample_training_pairs(self.matcher.candidates(base), rng=rng)
            if not training.labels().any():
                raise ConfigurationError(
                    "no positive training pairs in the bootstrap dataset; "
                    "provide an alignment file"
                )
            self.matcher.fit(base, training)
        self.clusterer = IncrementalClusterer(
            self.matcher, base, threshold=self.threshold, linkage=self.linkage
        )
        self.clusterer.add_all()

    # -- featurize -----------------------------------------------------------
    def featurize(
        self,
        path: Path,
        alignment_path: Path | None,
        fingerprint: str,
    ) -> PreparedBatch:
        """Load one admitted source file, grow a successor matcher, score.

        Raises the loader's :class:`~repro.errors.TransientDataError` /
        :class:`~repro.errors.DataError` unchanged -- the daemon maps
        those onto retry vs. quarantine.  Touches no pipeline state, so
        a source whose names are already integrated raises
        :class:`DataError` ("already present") however often the batch
        is retried, and a batch that failed after this step is redone
        from scratch.
        """
        addition = load_source_csv(path, alignment_path)
        # Unbootstrapped, the first batch grows from an empty dataset.
        base = (
            self.clusterer.dataset
            if self.clusterer is not None
            else Dataset(addition.name, [])
        )
        matcher, merged, pairs = self.matcher.with_source(base, addition)
        if pairs and not matcher.is_fitted:
            raise ConfigurationError(
                f"{matcher.name} is not fitted; bootstrap before "
                "featurizing batches"
            )
        scores = matcher.score_pairs(merged, pairs) if pairs else np.zeros(0)
        return PreparedBatch(
            file=path.name,
            fingerprint=fingerprint,
            addition=addition,
            merged=merged,
            matcher=matcher,
            pairs=pairs,
            scores=scores,
        )

    # -- fuse ----------------------------------------------------------------
    def fuse(self, batch: PreparedBatch) -> dict[str, int]:
        """Fold a prepared batch into clusters and rewrite the outputs.

        Copy-on-swap: the successor clusters and match rows are built
        and written out first, and the pipeline adopts them (with the
        batch's matcher) only once both files are on disk.  Outputs
        are full rewrites, so a retry after a failed write repairs a
        half-written pair of files.
        """
        if self.clusterer is None:
            clusterer = IncrementalClusterer(
                batch.matcher,
                batch.merged,
                threshold=self.threshold,
                linkage=self.linkage,
            )
            changes = clusterer.add_all()
        else:
            clusterer = self.clusterer.successor(batch.matcher)
            changes = clusterer.add_dataset(batch.addition, batch.merged)
        kept = np.flatnonzero(batch.scores >= self.threshold)
        rows = self._match_rows + [
            (left.source, left.name, right.source, right.name, f"{score:.4f}")
            for left, right, score in zip(
                *batch.pairs.sides(kept), batch.scores[kept].tolist()
            )
        ]
        self._write_outputs(clusterer, rows)
        self.matcher = batch.matcher
        self.clusterer = clusterer
        self._match_rows = rows
        self._fused_batches += 1
        return {
            "order": self._fused_batches,
            "matches": len(kept),
            "joined": changes["joined"],
            "founded": changes["founded"],
        }

    def _write_outputs(
        self,
        clusterer: IncrementalClusterer,
        rows: list[tuple[str, str, str, str, str]],
    ) -> None:
        """Atomically rewrite matches CSV and clusters JSON (REP002).

        Full rewrites, not appends: the files depend only on the fused
        sequence, never on how many times the process died in between.
        """
        with atomic_open_text(self.matches_path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(MATCH_COLUMNS)
            writer.writerows(rows)
        atomic_write_text(self.clusters_path, self._clusters_json(clusterer))
        # Same durability boundary for the name-distance kernel cache:
        # rows computed for this batch survive a kill right after the
        # batch's outputs do.  No-op unless serve wired a cache.
        flush_persistent_distances()

    def _clusters_json(self, clusterer: IncrementalClusterer) -> str:
        clusters = sorted(
            sorted(f"{ref.source}|{ref.name}" for ref in cluster)
            for cluster in clusterer.clusters()
        )
        payload = {
            "threshold": self.threshold,
            "linkage": self.linkage,
            "sources": clusterer.integrated_sources,
            "clusters": clusters,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

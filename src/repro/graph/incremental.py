"""Incremental multi-source integration: add sources one at a time.

Knowledge graphs are not built in one batch -- new sources arrive and
must be folded into the existing property clusters (cf. the incremental
multi-source entity resolution of Saeedi, Peukert & Rahm, which the
paper cites as its integration context).  The
:class:`IncrementalClusterer` maintains clusters of equivalent
properties and, for each arriving source, scores its properties against
the current clusters with any fitted matcher:

* a property joins the cluster with the strongest link above the
  threshold (max-link by default, average-link optionally);
* otherwise it founds a new cluster.

Compared with batch clustering over all pairs, incremental integration
scores only ``new-properties x existing-properties`` pairs per step.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import explicit_pairs
from repro.errors import ConfigurationError, DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> graph)
    from repro.core.api import Matcher


class IncrementalClusterer:
    """Grow property clusters source by source with a fitted matcher."""

    def __init__(
        self,
        matcher: "Matcher",
        dataset: Dataset,
        threshold: float | None = None,
        linkage: str = "max",
    ) -> None:
        if linkage not in ("max", "average"):
            raise ConfigurationError(f"linkage must be 'max' or 'average', got {linkage!r}")
        self.matcher = matcher
        self.dataset = dataset
        self.threshold = threshold if threshold is not None else matcher.threshold
        self.linkage = linkage
        self._clusters: list[set[PropertyRef]] = []
        self._integrated_sources: list[str] = []
        matcher.prepare(dataset)

    @property
    def integrated_sources(self) -> list[str]:
        """Sources added so far, in insertion order."""
        return list(self._integrated_sources)

    def clusters(self) -> list[set[PropertyRef]]:
        """Current clusters (copies; safe to mutate)."""
        return [set(cluster) for cluster in self._clusters]

    def _cluster_scores(
        self, new_refs: list[PropertyRef]
    ) -> dict[PropertyRef, list[float]]:
        """Per-new-property linkage score against every existing cluster.

        The (new, existing) cross-source pairs, new-major and existing
        in cluster order, are scored as one explicit :class:`PairSet`;
        each cluster's scores are then a contiguous run of its row.
        """
        properties = self.dataset.properties()
        index = {ref: i for i, ref in enumerate(properties)}
        sources = np.array([ref.source for ref in properties], dtype=object)
        existing = [ref for cluster in self._clusters for ref in cluster]
        new = np.array([index[ref] for ref in new_refs], dtype=np.intp)
        old = np.array([index[ref] for ref in existing], dtype=np.intp)
        left, right = np.repeat(new, len(old)), np.tile(old, len(new))
        cross = sources[left] != sources[right]
        scores = np.zeros(len(left))
        if cross.any():
            scores[cross] = self.matcher.score_pairs(
                self.dataset, explicit_pairs(self.dataset, left[cross], right[cross])
            )
        scores = scores.reshape(len(new_refs), len(existing))
        cross = cross.reshape(scores.shape)
        bounds = np.cumsum([0] + [len(cluster) for cluster in self._clusters])
        reduced: dict[PropertyRef, list[float]] = {}
        for ref, ref_scores, ref_cross in zip(new_refs, scores, cross):
            row = []
            for start, stop in zip(bounds[:-1], bounds[1:]):
                cluster_scores = ref_scores[start:stop][ref_cross[start:stop]].tolist()
                if not cluster_scores:
                    row.append(-1.0)
                elif self.linkage == "max":
                    row.append(max(cluster_scores))
                else:
                    row.append(float(np.mean(cluster_scores)))
            reduced[ref] = row
        return reduced

    def add_source(self, source: str) -> dict[str, int]:
        """Integrate one source; returns ``{"joined": n, "founded": m}``.

        Properties of the source are attached greedily in decreasing
        best-score order, so the strongest evidence claims its cluster
        first.  Each touched cluster accepts at most one property of the
        new source (a source describes each reference property once).
        """
        if source in self._integrated_sources:
            raise DataError(f"source already integrated: {source}")
        if source not in self.dataset.sources():
            raise DataError(f"unknown source: {source}")
        new_refs = self.dataset.properties(source)
        joined = founded = 0
        if not self._clusters:
            for ref in new_refs:
                self._clusters.append({ref})
                founded += 1
            self._integrated_sources.append(source)
            return {"joined": 0, "founded": founded}
        scores = self._cluster_scores(new_refs)
        order = sorted(
            new_refs, key=lambda ref: -max(scores[ref], default=-1.0)
        )
        claimed: set[int] = set()
        for ref in order:
            row = scores[ref]
            best_cluster = -1
            best_score = self.threshold
            for index, score in enumerate(row):
                if index in claimed:
                    continue
                if score >= best_score:
                    best_cluster, best_score = index, score
            if best_cluster >= 0:
                self._clusters[best_cluster].add(ref)
                claimed.add(best_cluster)
                joined += 1
            else:
                self._clusters.append({ref})
                founded += 1
        self._integrated_sources.append(source)
        return {"joined": joined, "founded": founded}

    def successor(self, matcher: "Matcher") -> "IncrementalClusterer":
        """A copy scoring with ``matcher`` whose growth leaves this one as is.

        The copy-on-swap step of streaming ingestion: grow the copy,
        write its outputs, then swap it in.  Clusters and the source
        list are copied; the dataset is shared (datasets are immutable).
        """
        clone = copy.copy(self)
        clone.matcher = matcher
        clone._clusters = [set(cluster) for cluster in self._clusters]
        clone._integrated_sources = list(self._integrated_sources)
        return clone

    def add_dataset(self, addition: Dataset, merged: Dataset) -> dict[str, int]:
        """Grow the clusterer's dataset to ``merged``, then integrate ``addition``.

        The streaming counterpart of :meth:`add_source`: the clusterer
        was built over yesterday's dataset and a new source file just
        arrived.  ``merged`` is ``self.dataset.merged_with(addition)``,
        as :meth:`~repro.core.api.Matcher.with_source` returns it along
        with a matcher prepared on it.  Returns aggregate
        ``{"joined": n, "founded": m}`` counts over the addition's
        sources, integrated in ``addition.sources()`` order.
        """
        overlap = set(self._integrated_sources) & set(addition.sources())
        if overlap:
            raise DataError(f"source already integrated: {sorted(overlap)}")
        self.dataset = merged
        self.matcher.prepare(merged)
        totals = {"joined": 0, "founded": 0}
        for source in addition.sources():
            changes = self.add_source(source)
            totals["joined"] += changes["joined"]
            totals["founded"] += changes["founded"]
        return totals

    def add_all(self, order: list[str] | None = None) -> dict[str, int]:
        """Integrate every (remaining) source; returns aggregate counts."""
        sources = order if order is not None else self.dataset.sources()
        totals = {"joined": 0, "founded": 0}
        for source in sources:
            if source in self._integrated_sources:
                continue
            changes = self.add_source(source)
            totals["joined"] += changes["joined"]
            totals["founded"] += changes["founded"]
        return totals

"""Core data model: sources, property instances, datasets, alignments.

Follows Section III of the paper:

* a **source** is where data comes from (a website, a database, ...);
* a **property instance** is a tuple ``(p, e, v)`` of property name, entity
  id and literal value;
* the **class schema** of a source is simply the set of differently-named
  properties observed for its entities;
* two properties (from different sources) **match** when both are aligned
  to the same property of a reference ontology.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import DataError


@dataclass(frozen=True, order=True)
class PropertyRef:
    """A property identified by its source and its (source-local) name."""

    source: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source}::{self.name}"


@dataclass(frozen=True)
class DataValidationError:
    """One quarantined input row: a structured record, not an exception.

    Loaders that meet a malformed row mid-file (short row, empty
    required cell) must not crash a grid that is hours into its run;
    they drop the row, record *what* was dropped and *why* here, and
    surface the counts through :class:`Dataset` stats so silent data
    loss is impossible.
    """

    path: str
    line: int
    reason: str
    source: str | None = None

    def describe(self) -> str:
        where = f"{self.path}:{self.line}"
        prefix = f"[{self.source}] " if self.source else ""
        return f"{where}: {prefix}{self.reason}"


@dataclass(frozen=True)
class PropertyInstance:
    """One observed value of a property: the paper's ``(p, e, v)`` tuple.

    ``source`` is carried on the instance (rather than looked up through
    the entity) because the matching task is defined per source.
    """

    source: str
    property_name: str
    entity_id: str
    value: str

    @property
    def ref(self) -> PropertyRef:
        """The :class:`PropertyRef` this instance belongs to."""
        return PropertyRef(self.source, self.property_name)


@dataclass
class Dataset:
    """A multi-source collection of property instances with ground truth.

    Parameters
    ----------
    name:
        Dataset identifier ("cameras", "phones", ...).
    instances:
        All property instances across all sources.
    alignment:
        Maps each :class:`PropertyRef` to the name of the reference-ontology
        property it is aligned to.  Properties without an alignment entry
        are unaligned and match nothing.
    validation:
        :class:`DataValidationError` records for input rows the loader
        quarantined instead of ingesting (empty for clean or generated
        data).  Not part of the content fingerprint -- two datasets with
        identical surviving instances are the same dataset.
    """

    name: str
    instances: list[PropertyInstance]
    alignment: dict[PropertyRef, str] = field(default_factory=dict)
    validation: tuple[DataValidationError, ...] = ()

    def __post_init__(self) -> None:
        self._instances_by_ref: dict[PropertyRef, list[PropertyInstance]] = defaultdict(list)
        for instance in self.instances:
            self._instances_by_ref[instance.ref].append(instance)
        self._sorted_refs = sorted(self._instances_by_ref)
        unknown = [ref for ref in self.alignment if ref not in self._instances_by_ref]
        if unknown:
            sample = ", ".join(str(ref) for ref in unknown[:3])
            raise DataError(
                f"alignment refers to {len(unknown)} properties with no instances "
                f"(e.g. {sample})"
            )

    def fingerprint(self) -> str:
        """Content fingerprint: name, structural counts and a content hash.

        Two datasets that merely share a ``name`` -- even with identical
        instance and alignment *counts* -- get different fingerprints
        whenever any instance tuple or alignment entry differs, which is
        what per-dataset caches (feature tables, run-journal keys) must
        key on instead of the bare name.  The hash covers the sorted
        ``(source, property, entity, value)`` tuples plus the alignment,
        so it is order-insensitive.

        The value is computed once and cached; a ``Dataset`` must not be
        mutated after its fingerprint (or any derived cache key) has been
        used.  The transformation methods (:meth:`restrict_to_sources`,
        :meth:`cap_entities_per_source`) already return new instances.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            hasher = hashlib.sha256()
            for instance in sorted(
                self.instances,
                key=lambda i: (i.source, i.property_name, i.entity_id, i.value),
            ):
                hasher.update(
                    "\x1f".join(
                        (
                            instance.source,
                            instance.property_name,
                            instance.entity_id,
                            instance.value,
                        )
                    ).encode("utf-8")
                )
                hasher.update(b"\x1e")
            for ref, reference in sorted(self.alignment.items()):
                hasher.update(
                    "\x1f".join((ref.source, ref.name, reference)).encode("utf-8")
                )
                hasher.update(b"\x1e")
            cached = (
                f"{self.name}"
                f":i{len(self.instances)}"
                f":a{len(self.alignment)}"
                f":{hasher.hexdigest()[:16]}"
            )
            self._fingerprint = cached
        return cached

    def rows_dropped(self) -> dict[str, int]:
        """Quarantined input rows per source (``"?"`` when unattributable)."""
        dropped: dict[str, int] = {}
        for record in self.validation:
            key = record.source if record.source else "?"
            dropped[key] = dropped.get(key, 0) + 1
        return dropped

    # -- schema-level accessors ---------------------------------------------
    def sources(self) -> list[str]:
        """Sorted list of all source identifiers."""
        return sorted({instance.source for instance in self.instances})

    def properties(self, source: str | None = None) -> list[PropertyRef]:
        """All properties, optionally restricted to one source, sorted."""
        if source is not None:
            return [ref for ref in self._sorted_refs if ref.source == source]
        return list(self._sorted_refs)

    def schema_of(self, source: str) -> list[str]:
        """The class schema of a source: its distinct property names."""
        return sorted({ref.name for ref in self.properties(source)})

    def entities(self, source: str | None = None) -> list[str]:
        """Distinct entity ids, optionally restricted to one source."""
        if source is None:
            return sorted({i.entity_id for i in self.instances})
        return sorted({i.entity_id for i in self.instances if i.source == source})

    # -- instance-level accessors --------------------------------------------
    def instances_of(self, ref: PropertyRef) -> list[PropertyInstance]:
        """All instances of one property (empty for unknown refs)."""
        return list(self._instances_by_ref.get(ref, ()))

    def values_of(self, ref: PropertyRef) -> list[str]:
        """All literal values of one property."""
        return [instance.value for instance in self._instances_by_ref.get(ref, ())]

    # -- ground truth ---------------------------------------------------------
    def reference_of(self, ref: PropertyRef) -> str | None:
        """Reference-ontology property this ref is aligned to, or None."""
        return self.alignment.get(ref)

    def is_match(self, a: PropertyRef, b: PropertyRef) -> bool:
        """Ground truth: both aligned to the same reference property.

        Pairs within the same source are never matches for the task
        (matching is defined across sources).
        """
        if a.source == b.source:
            return False
        reference_a = self.alignment.get(a)
        return reference_a is not None and reference_a == self.alignment.get(b)

    def matching_pairs(self) -> set[frozenset[PropertyRef]]:
        """All unordered cross-source matching pairs."""
        by_reference: dict[str, list[PropertyRef]] = defaultdict(list)
        for ref, reference in self.alignment.items():
            by_reference[reference].append(ref)
        pairs: set[frozenset[PropertyRef]] = set()
        for refs in by_reference.values():
            for i, first in enumerate(refs):
                for second in refs[i + 1 :]:
                    if first.source != second.source:
                        pairs.add(frozenset((first, second)))
        return pairs

    def merged_with(self, other: "Dataset") -> "Dataset":
        """A new dataset with ``other``'s sources added to this one.

        The incremental-ingestion primitive behind
        :meth:`repro.core.api.Matcher.with_source`: source sets must be
        disjoint (the matching task is defined per source, so
        re-ingesting an existing source would silently duplicate its
        instances), and every add-source caller relies on this check
        raising "already present" before any other work.  The merged
        dataset keeps this dataset's name; instances are
        concatenated base-first so per-property value order -- and with
        it every content-fingerprinted feature row -- is preserved.
        """
        overlap = set(self.sources()) & set(other.sources())
        if overlap:
            raise DataError(
                f"sources already present in dataset: {sorted(overlap)}"
            )
        alignment = dict(self.alignment)
        alignment.update(other.alignment)
        return Dataset(
            name=self.name,
            instances=self.instances + other.instances,
            alignment=alignment,
            validation=self.validation + other.validation,
        )

    def restrict_to_sources(self, sources: set[str] | list[str]) -> "Dataset":
        """A new dataset containing only the given sources."""
        wanted = set(sources)
        missing = wanted - set(self.sources())
        if missing:
            raise DataError(f"unknown sources: {sorted(missing)}")
        instances = [i for i in self.instances if i.source in wanted]
        alignment = {
            ref: reference
            for ref, reference in self.alignment.items()
            if ref.source in wanted
        }
        return Dataset(name=self.name, instances=instances, alignment=alignment)

    def cap_entities_per_source(self, cap: int) -> "Dataset":
        """Keep at most ``cap`` entities per source (the paper caps at 100).

        Entities are kept in sorted-id order so capping is deterministic.
        """
        if cap < 1:
            raise DataError(f"entity cap must be >= 1, got {cap}")
        keep: set[tuple[str, str]] = set()
        for source in self.sources():
            for entity in self.entities(source)[:cap]:
                keep.add((source, entity))
        instances = [
            i for i in self.instances if (i.source, i.entity_id) in keep
        ]
        surviving_refs = {i.ref for i in instances}
        alignment = {
            ref: reference
            for ref, reference in self.alignment.items()
            if ref in surviving_refs
        }
        return Dataset(name=self.name, instances=instances, alignment=alignment)

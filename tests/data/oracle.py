"""The seed pair enumeration the pair universe is tested against.

``build_pairs`` is the null-policy ``PairUniverse(dataset).subset``, so
comparing a universe with it compares the universe with itself.  This
is the loop it was before, kept verbatim: one :class:`LabeledPair` per
cross-source pair, labelled by ``Dataset.is_match``, in the
lexicographic ``(i, j)`` order over the sorted properties.
"""

from __future__ import annotations

from repro.data.model import Dataset
from repro.data.pairs import LabeledPair, cross_source_index_pairs
from repro.errors import ConfigurationError


def seed_pairs(
    dataset: Dataset,
    sources: list[str] | None = None,
    *,
    within: bool = True,
) -> list[LabeledPair]:
    """The pairs ``build_pairs(dataset, sources, within=within)`` must hold."""
    all_sources = dataset.sources()
    if sources is None:
        selected = set(all_sources)
    else:
        unknown = set(sources) - set(all_sources)
        if unknown:
            raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
        selected = set(sources)
    properties = dataset.properties()
    inside = [ref.source in selected for ref in properties]
    pairs: list[LabeledPair] = []
    for i, j in cross_source_index_pairs(properties):
        if within != (inside[i] and inside[j]):
            continue
        left, right = properties[i], properties[j]
        pairs.append(LabeledPair(left, right, dataset.is_match(left, right)))
    return pairs

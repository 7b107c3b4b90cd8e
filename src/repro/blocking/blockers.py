"""Blocking strategies: prune candidate pairs before classification.

Every blocker produces its candidates as sorted ``(i, j)`` *index pairs*
into the dataset's sorted property list (:meth:`candidate_index_pairs`).
Index pairs are the native currency of the candidate-generation stage:
:class:`~repro.core.feature_cache.PairUniverse` consumes them directly,
no per-pair ``frozenset`` keys are materialised, and the lexicographic
``(i, j)`` order equals the historical full-enumeration order, which is
what keeps the :class:`NullBlocker` path byte-identical to the seed
pipeline.  :meth:`candidate_keys` is the frozenset view of the same
candidates.

Bucket blockers (:class:`SketchBlocker`, :class:`EmbeddingLSHBlocker`)
derive per-property bucket keys that depend only on the property's own
name/values/embedding.  That locality is what makes delta ingestion
cheap and exact: after ``merged_with`` the keys of pre-existing
properties are unchanged (and memoised), so re-blocking a grown dataset
is a bucket lookup for the old rows plus fresh sketches for the new
source only — never a new×all cross product.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from collections import Counter, defaultdict
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import cross_source_index_pairs
from repro.errors import ConfigurationError
from repro.text.minhash import MinHasher
from repro.text.normalize import token_set
from repro.text.tokenize import tokenize


class Blocker(ABC):
    """Produces the candidate pair set the matcher will classify.

    A blocker trades *pair completeness* (true matches kept) against
    *reduction ratio* (pairs pruned); see
    :meth:`~repro.core.feature_cache.PairUniverse.blocking_stats`.
    """

    #: Stable policy label; see :class:`repro.blocking.policy.CandidatePolicy`.
    name: str = "blocker"

    @abstractmethod
    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        """Sorted ``(i, j)`` cross-source index pairs into ``properties``.

        ``properties`` defaults to ``dataset.properties()`` and must be
        that sorted sequence when given (callers pass it to avoid a
        second sort).  Pairs satisfy ``i < j`` and span two sources.
        """

    def candidate_keys(self, dataset: Dataset) -> set[frozenset[PropertyRef]]:
        """The unordered cross-source pairs to keep (metrics view)."""
        properties = dataset.properties()
        return {
            frozenset((properties[i], properties[j]))
            for i, j in self.candidate_index_pairs(dataset, properties)
        }


class NullBlocker(Blocker):
    """No pruning: every cross-source pair is a candidate (Algorithm 1)."""

    name = "null"

    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        if properties is None:
            properties = dataset.properties()
        return list(cross_source_index_pairs(properties))


def _emit_bucket(
    pairs: set[tuple[int, int]],
    members: Sequence[int],
    sources: Sequence[str],
) -> None:
    """Add all cross-source member pairs of one bucket (members ascending)."""
    for position, i in enumerate(members):
        for j in members[position + 1 :]:
            if sources[i] != sources[j]:
                pairs.add((i, j))


class BucketBlocker(Blocker):
    """Inverted-index blocking: share a bucket key, become a candidate.

    Subclasses implement :meth:`property_keys`; the pair enumeration
    cost is bucket-output-sized, never quadratic in the property count.
    """

    @abstractmethod
    def property_keys(
        self, dataset: Dataset, ref: PropertyRef
    ) -> Iterable[Hashable]:
        """Bucket keys of one property, derived from the property alone."""

    def bucket_index(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> dict[Hashable, list[int]]:
        """Inverted index ``bucket key -> ascending property indices``."""
        if properties is None:
            properties = dataset.properties()
        buckets: dict[Hashable, list[int]] = defaultdict(list)
        for index, ref in enumerate(properties):
            for key in self.property_keys(dataset, ref):
                buckets[key].append(index)
        return buckets

    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        if properties is None:
            properties = dataset.properties()
        sources = [ref.source for ref in properties]
        pairs: set[tuple[int, int]] = set()
        for members in self.bucket_index(dataset, properties).values():
            if len(members) > 1:
                _emit_bucket(pairs, members, sources)
        return sorted(pairs)


class TokenBlocker(Blocker):
    """Shared-token blocking over names and (optionally) values.

    Two properties become candidates when they share a normalised name
    token, or share a sufficiently *selective* value token (one carried
    by at most ``max_value_token_fraction`` of all properties -- ubiquitous
    tokens like unit-free digits would otherwise void the pruning).

    The value-token selectivity cut-off depends on the *global* property
    count, so this blocker is not incrementally stable: growing a dataset
    can re-block pre-existing pairs.  Delta ingestion stays exact (the
    universe is re-derived from the merged dataset) but may featurize a
    few old-source pairs; prefer :class:`SketchBlocker` for serving.
    """

    name = "token"

    def __init__(
        self,
        use_values: bool = True,
        max_value_token_fraction: float = 0.25,
    ) -> None:
        if not 0.0 < max_value_token_fraction <= 1.0:
            raise ConfigurationError("max_value_token_fraction must be in (0, 1]")
        self.use_values = use_values
        self.max_value_token_fraction = max_value_token_fraction

    def _value_tokens(self, dataset: Dataset, ref: PropertyRef) -> set[str]:
        tokens: set[str] = set()
        for value in dataset.values_of(ref):
            tokens.update(token.lower() for token in tokenize(value) if not token.isdigit())
        return tokens

    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        if properties is None:
            properties = dataset.properties()
        sources = [ref.source for ref in properties]
        buckets: dict[str, list[int]] = defaultdict(list)
        for index, ref in enumerate(properties):
            for token in token_set(ref.name):
                buckets[f"n:{token}"].append(index)
        if self.use_values:
            token_owners: Counter[str] = Counter()
            per_index_tokens: list[set[str]] = []
            for ref in properties:
                tokens = self._value_tokens(dataset, ref)
                per_index_tokens.append(tokens)
                token_owners.update(tokens)
            limit = max(2, int(self.max_value_token_fraction * len(properties)))
            for index, tokens in enumerate(per_index_tokens):
                for token in tokens:
                    if token_owners[token] <= limit:
                        buckets[f"v:{token}"].append(index)
        pairs: set[tuple[int, int]] = set()
        for members in buckets.values():
            if len(members) > 1:
                _emit_bucket(pairs, members, sources)
        return sorted(pairs)


class MinHashBlocker(Blocker):
    """LSH banding over the combined name+value token set of a property.

    Properties whose signatures agree on any full band become candidates;
    band size controls the similarity threshold of the implicit filter.
    This is the paper's plain Duan-et-al. construction kept for baseline
    evaluation; the production ``minhash`` candidate policy is the
    higher-recall :class:`SketchBlocker`.
    """

    def __init__(
        self,
        num_hashes: int = 32,
        band_size: int = 4,
        seed: int = 0,
    ) -> None:
        if band_size < 1 or num_hashes % band_size != 0:
            raise ConfigurationError("band_size must divide num_hashes")
        self.num_hashes = num_hashes
        self.band_size = band_size
        self._hasher = MinHasher(num_hashes=num_hashes, seed=seed)

    def _tokens(self, dataset: Dataset, ref: PropertyRef) -> set[str]:
        tokens = set(token_set(ref.name))
        for value in dataset.values_of(ref):
            tokens.update(token.lower() for token in tokenize(value))
        return tokens

    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        if properties is None:
            properties = dataset.properties()
        sources = [ref.source for ref in properties]
        bands = self.num_hashes // self.band_size
        buckets: dict[tuple, list[int]] = defaultdict(list)
        for index, ref in enumerate(properties):
            signature = self._hasher.signature(self._tokens(dataset, ref))
            for band in range(bands):
                start = band * self.band_size
                band_key = (band, tuple(signature[start : start + self.band_size]))
                buckets[band_key].append(index)
        pairs: set[tuple[int, int]] = set()
        for members in buckets.values():
            if len(members) > 1:
                _emit_bucket(pairs, members, sources)
        return sorted(pairs)


#: Value tokens treated as the boolean shape class: yes/no-style columns
#: carry no vocabulary overlap across sources, so they share one bucket.
_BOOLEAN_TOKENS = frozenset(
    {"yes", "no", "y", "n", "true", "false", "yy", "nn", "on", "off"}
)


def _padded_trigrams(token: str) -> Iterable[str]:
    padded = f"^{token}$"
    return (padded[k : k + 3] for k in range(len(padded) - 2))


class SketchBlocker(BucketBlocker):
    """The ``minhash`` candidate policy: banded sketches + bounded expansion.

    Per property it emits inverted-index keys from several channels --
    normalised name tokens (``n``) and their padded character trigrams
    (``ng``), one-row minhash bands over the full value token set (``v``),
    digit runs (``d``), alphabetic runs (``a``) and their trigrams (``vg``)
    from raw values, and a boolean shape class (``bool``).  Trigram and
    run channels make the sketch robust to the typo/unit noise property
    values carry ("lightning"/"lighning", "hz"/"khz", "141 grams"/"g 176").

    Direct candidates are cross-source pairs sharing a key whose bucket
    is below its channel's frequency cap (oversized buckets carry no
    signal and would re-quadratize the output).  A second, *bounded
    transitive* channel then union-finds properties over rare name/alpha
    keys (document frequency <= ``union_df``) with a hard component-size
    cap and adds each component's cross-source pairs: synonym columns
    with disjoint vocabularies ("heft"/"weight"/"mass") are usually
    bridged by a third source even when they share no key directly.

    Every key is a pure function of one property's name and values, so
    signatures are memoised per property: re-blocking after
    ``merged_with`` recomputes sketches for the new source only.
    """

    name = "minhash"

    #: Per-channel bucket-size caps for the direct channel.
    _CAPS = {
        "n": 25,
        "ng": 10,
        "v": 25,
        "d": 15,
        "a": 20,
        "vg": 10,
        "bool": 30,
    }
    #: Channels whose rare keys feed the bounded union-find expansion.
    _UNION_KINDS = ("a", "n")

    def __init__(
        self,
        num_hashes: int = 32,
        band_size: int = 1,
        seed: int = 0,
        union_df: int = 8,
        component_cap: int = 16,
    ) -> None:
        if band_size < 1 or num_hashes % band_size != 0:
            raise ConfigurationError("band_size must divide num_hashes")
        if union_df < 2:
            raise ConfigurationError("union_df must be >= 2")
        if component_cap < 2:
            raise ConfigurationError("component_cap must be >= 2")
        self.num_hashes = num_hashes
        self.band_size = band_size
        self.seed = seed
        self.union_df = union_df
        self.component_cap = component_cap
        self._hasher = MinHasher(num_hashes=num_hashes, seed=seed)
        # Sketch memo: keys are a pure function of (name, values), so a
        # property re-seen after merged_with() is a dict hit, which is
        # what makes delta re-blocking a bucket lookup for old rows.
        self._memo: dict[tuple[PropertyRef, int, int], tuple[Hashable, ...]] = {}

    def property_keys(
        self, dataset: Dataset, ref: PropertyRef
    ) -> Iterable[Hashable]:
        values = dataset.values_of(ref)
        memo_key = (ref, len(values), hash(tuple(values)))
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        keys: set[Hashable] = set()
        for token in token_set(ref.name):
            keys.add(("n", token))
            keys.update(("ng", gram) for gram in _padded_trigrams(token))
        value_tokens: set[str] = set()
        alpha_runs: set[str] = set()
        digit_runs: set[str] = set()
        for value in values:
            lowered = value.lower()
            value_tokens.update(token.lower() for token in tokenize(value))
            alpha_runs.update(re.findall(r"[a-z]+", lowered))
            digit_runs.update(re.findall(r"\d{2,}", lowered))
        if value_tokens:
            signature = self._hasher.signature(value_tokens)
            bands = self.num_hashes // self.band_size
            for band in range(bands):
                start = band * self.band_size
                keys.add(
                    ("v", band, tuple(signature[start : start + self.band_size]))
                )
        for run in digit_runs:
            keys.add(("d", run))
        for run in alpha_runs:
            keys.add(("a", run))
            keys.update(("vg", gram) for gram in _padded_trigrams(run))
        if value_tokens & _BOOLEAN_TOKENS:
            keys.add(("bool",))
        frozen = tuple(sorted(keys, key=repr))
        self._memo[memo_key] = frozen
        return frozen

    def candidate_index_pairs(
        self,
        dataset: Dataset,
        properties: Sequence[PropertyRef] | None = None,
    ) -> list[tuple[int, int]]:
        if properties is None:
            properties = dataset.properties()
        sources = [ref.source for ref in properties]
        buckets = self.bucket_index(dataset, properties)
        pairs: set[tuple[int, int]] = set()
        for key, members in buckets.items():
            if 2 <= len(members) <= self._CAPS[key[0]]:
                _emit_bucket(pairs, members, sources)
        self._expand_components(buckets, sources, pairs)
        return sorted(pairs)

    def _expand_components(
        self,
        buckets: dict[Hashable, list[int]],
        sources: Sequence[str],
        pairs: set[tuple[int, int]],
    ) -> None:
        """Union-find over rare keys, capped; add component cross pairs."""
        parent = list(range(len(sources)))
        size = [1] * len(sources)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        strong = sorted(
            key for key in buckets if key[0] in self._UNION_KINDS
        )
        for key in strong:
            members = buckets[key]
            if not 2 <= len(members) <= self.union_df:
                continue
            anchor = members[0]
            for member in members[1:]:
                root_a, root_b = find(anchor), find(member)
                if root_a == root_b:
                    continue
                if size[root_a] + size[root_b] > self.component_cap:
                    continue
                if size[root_a] < size[root_b]:
                    root_a, root_b = root_b, root_a
                parent[root_b] = root_a
                size[root_a] += size[root_b]
        components: dict[int, list[int]] = defaultdict(list)
        for index in range(len(sources)):
            components[find(index)].append(index)
        for members in components.values():
            if len(members) > 1:
                _emit_bucket(pairs, members, sources)


class EmbeddingLSHBlocker(BucketBlocker):
    """The ``embedding`` candidate policy: random-hyperplane LSH buckets.

    Each property is embedded as the mean of its name embedding and its
    per-value text embeddings; ``num_tables`` independent sign-pattern
    hashes of ``num_bits`` hyperplanes each bucket the vectors (Charikar
    SimHash).  Properties with an all-zero embedding (fully
    out-of-vocabulary) share the all-positive sign pattern per table and
    therefore still meet each other.  Hash keys are a pure function of
    one property's embedding, so the blocker is incrementally stable
    under ``merged_with`` like :class:`SketchBlocker`.
    """

    name = "embedding"

    def __init__(
        self,
        embeddings,
        num_tables: int = 8,
        num_bits: int = 8,
        seed: int = 0,
    ) -> None:
        if num_tables < 1:
            raise ConfigurationError("num_tables must be >= 1")
        if num_bits < 1:
            raise ConfigurationError("num_bits must be >= 1")
        if embeddings is None:
            raise ConfigurationError(
                "EmbeddingLSHBlocker needs word embeddings to bucket properties"
            )
        self.embeddings = embeddings
        self.num_tables = num_tables
        self.num_bits = num_bits
        self.seed = seed
        rng = np.random.default_rng([seed, embeddings.dimension])
        self._planes = rng.standard_normal(
            (num_tables, num_bits, embeddings.dimension)
        )
        self._memo: dict[tuple[PropertyRef, int, int], tuple[Hashable, ...]] = {}

    def _vector(self, dataset: Dataset, ref: PropertyRef) -> np.ndarray:
        parts = [self.embeddings.embed_text(ref.name)]
        parts.extend(
            self.embeddings.embed_text(value) for value in dataset.values_of(ref)
        )
        return np.mean(parts, axis=0)

    def property_keys(
        self, dataset: Dataset, ref: PropertyRef
    ) -> Iterable[Hashable]:
        values = dataset.values_of(ref)
        memo_key = (ref, len(values), hash(tuple(values)))
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        vector = self._vector(dataset, ref)
        keys = []
        for table in range(self.num_tables):
            bits = (self._planes[table] @ vector) >= 0.0
            keys.append(("t", table, tuple(bool(bit) for bit in bits)))
        frozen = tuple(keys)
        self._memo[memo_key] = frozen
        return frozen

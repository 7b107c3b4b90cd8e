"""FCA-Map-style matcher: formal concept analysis over name tokens.

FCA-Map builds a formal context whose *objects* are ontology elements and
whose *attributes* are their lexical tokens, constructs the concept
lattice, and extracts matches from concepts whose extent contains
elements of both ontologies.  For flat multi-source property schemas we
keep the same mechanism:

* formal context: property -> normalised name-token set;
* for every property, its *object concept* is the closure
  (extent of the intent of its token set);
* two properties from different sources match when they belong to the
  same object concept with identical intent -- i.e. the lattice cannot
  lexically distinguish them.

Token-identical names across naming conventions are found (high
precision); synonyms are invisible to the lattice (low recall), matching
the Table II profile (P ~0.99, R ~0.35).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.api import Matcher, Pairs, pair_ends
from repro.data.model import Dataset, PropertyRef
from repro.text.normalize import token_set


class FcaMapMatcher(Matcher):
    """Unsupervised FCA-based matcher."""

    name = "FCA-Map"
    is_supervised = False

    def __init__(self, threshold: float = 0.5) -> None:
        self.threshold = threshold
        self._concept_of: dict[PropertyRef, int] = {}
        self._prepared_for: str | None = None

    def prepare(self, dataset: Dataset) -> None:
        """Build the formal context and assign object concepts.

        Keyed on the content fingerprint: a merged dataset keeps its name.
        """
        if self._prepared_for == dataset.fingerprint():
            return
        intents: dict[frozenset[str], int] = {}
        self._concept_of = {
            ref: intents.setdefault(token_set(ref.name), len(intents))
            for ref in dataset.properties()
        }
        self._prepared_for = dataset.fingerprint()

    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        """1 where both ends share an object concept; a foreign ref gets 0."""
        self.prepare(dataset)
        refs, left, right = pair_ends(pairs)
        concept = np.array([self._concept_of.get(ref, -1) for ref in refs], dtype=np.intp)
        same = (concept[left] == concept[right]) & (concept[left] >= 0)
        return same.astype(np.float64)

    def concepts(self) -> dict[int, list[PropertyRef]]:
        """The object concepts of the last prepared dataset (diagnostics)."""
        grouped: dict[int, list[PropertyRef]] = defaultdict(list)
        for ref, concept in self._concept_of.items():
            grouped[concept].append(ref)
        return dict(grouped)

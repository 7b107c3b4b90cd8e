"""AgreementMakerLight-style lexical matcher.

AML's strength on flat schemas comes from its lexical matchers: label
normalisation, a word-overlap similarity and background-knowledge
synonym expansion, followed by a high-confidence selection step.  Our
re-implementation keeps those three ingredients:

* names are normalised (case, separators, light stemming);
* the similarity of two names is the maximum of (a) exact normalised
  equality, (b) a word-overlap (Jaccard) score and (c) a down-weighted
  Jaro-Winkler similarity of the joined normalised names;
* background knowledge is *generic* morphology only (the stemming step)
  -- AML's WordNet does not know that "mp" means "megapixels", which is
  precisely why the paper reports high precision but low recall for it;
* selection keeps pairs above a high threshold (AML's conservative
  default regime), yielding the high-precision/low-recall profile of
  Table II.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Matcher, Pairs, name_pairs, pair_ends
from repro.data.model import Dataset
from repro.text.jaro import jaro_winkler_similarity
from repro.text.normalize import token_set


class AmlMatcher(Matcher):
    """Unsupervised lexical matcher in the style of AgreementMakerLight."""

    name = "AML"
    is_supervised = False

    def __init__(self, threshold: float = 0.8) -> None:
        self.threshold = threshold

    @staticmethod
    def _similarity(tokens_left: frozenset[str], tokens_right: frozenset[str]) -> float:
        if not tokens_left or not tokens_right:
            return 0.0
        if tokens_left == tokens_right:
            return 1.0
        union = len(tokens_left | tokens_right)
        overlap = len(tokens_left & tokens_right) / union
        joined_left = " ".join(sorted(tokens_left))
        joined_right = " ".join(sorted(tokens_right))
        string_sim = jaro_winkler_similarity(joined_left, joined_right)
        # AML combines matchers by taking the best evidence; the small
        # weight on string similarity keeps near-identical spellings
        # above threshold without promoting loose word overlaps.
        return max(overlap, 0.9 * string_sim)

    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        """Each distinct (ordered) name pair is scored once."""
        names, distinct, inverse = name_pairs(*pair_ends(pairs))
        tokens = {name: token_set(name) for name in names}
        scores = [self._similarity(tokens[a], tokens[b]) for a, b in distinct]
        return np.array(scores, dtype=np.float64)[inverse]

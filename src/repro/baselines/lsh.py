"""Duan et al.: instance-based matching with minhash LSH.

The original work matches large ontologies purely from instance data:
every element is summarised by a minhash signature of its instance-token
set, locality-sensitive hashing with small bands proposes candidates, and
the signature agreement estimates the Jaccard similarity of the
underlying token sets.  The paper runs it "using minhash with a band
size of 1".

Being name-blind, this matcher only works where matching properties
share literal value tokens across sources (units, enum spellings, shared
product codes) -- which is why Table II shows it respectable on the
well-populated camera dataset and recall-starved on the sparse ones.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Matcher, Pairs, pair_ends
from repro.data.model import Dataset, PropertyRef
from repro.errors import ConfigurationError

# Re-exported for compatibility: the signature machinery moved to
# repro.text.minhash so blocking can import it without the baselines
# (and transitively the whole core) in its import graph.
from repro.text.minhash import MinHasher, hash_token  # noqa: F401
from repro.text.tokenize import tokenize

#: Pairs compared per step (a 2 MiB signature block at 64 hashes).
_PAIR_BLOCK = 4096


class LshMatcher(Matcher):
    """Unsupervised instance-based minhash matcher (Duan et al. style)."""

    name = "LSH"
    is_supervised = False

    def __init__(
        self,
        num_hashes: int = 64,
        band_size: int = 1,
        threshold: float = 0.3,
        seed: int = 0,
    ) -> None:
        if band_size < 1 or num_hashes % band_size != 0:
            raise ConfigurationError("band_size must divide num_hashes")
        self.threshold = threshold
        self.band_size = band_size
        self._hasher = MinHasher(num_hashes=num_hashes, seed=seed)
        self._row_of: dict[PropertyRef, int] = {}
        self._minhash = np.empty((0, num_hashes), dtype=np.int64)
        self._prepared_for: str | None = None

    def prepare(self, dataset: Dataset) -> None:
        """One minhash signature row per property's instance-token set.

        Keyed on the content fingerprint: a merged dataset keeps its name.
        """
        if self._prepared_for == dataset.fingerprint():
            return
        properties = dataset.properties()
        minhash = np.empty((len(properties), self._hasher.num_hashes), dtype=np.int64)
        for row, ref in enumerate(properties):
            values = dataset.values_of(ref)
            tokens = {token.lower() for value in values for token in tokenize(value)}
            minhash[row] = self._hasher.signature(tokens)
        self._row_of = {ref: row for row, ref in enumerate(properties)}
        self._minhash = minhash
        self._prepared_for = dataset.fingerprint()

    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        """Estimated Jaccard where any band agrees fully, else 0; foreign refs raise."""
        self.prepare(dataset)
        refs, left, right = pair_ends(pairs)
        rows = np.array([self._row_of[ref] for ref in refs], dtype=np.intp)
        left, right = rows[left], rows[right]
        scores = np.zeros(len(left))
        bands = self._minhash.shape[1] // self.band_size
        for start in range(0, len(left), _PAIR_BLOCK):
            stop = start + _PAIR_BLOCK
            agree = self._minhash[left[start:stop]] == self._minhash[right[start:stop]]
            candidate = agree.reshape(len(agree), bands, self.band_size).all(-1).any(-1)
            scores[start:stop] = np.where(candidate, agree.mean(1), 0.0)
        return scores

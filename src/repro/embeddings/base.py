"""The :class:`WordEmbeddings` container and text encoding.

Implements the paper's embedding-lookup semantics exactly:

* each known word maps to a fixed vector;
* "unknown words are mapped to a vector filled with zeroes";
* "for each property value and name we determine the average embeddings of
  the individual words".
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.vocab import Vocabulary
from repro.errors import DimensionError
from repro.text.tokenize import words


class WordEmbeddings:
    """A vocabulary plus an aligned ``(len(vocab), dim)`` vector matrix."""

    def __init__(self, vocabulary: Vocabulary, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DimensionError(f"vectors must be 2-D, got shape {vectors.shape}")
        if vectors.shape[0] != len(vocabulary):
            raise DimensionError(
                f"vector count {vectors.shape[0]} != vocabulary size {len(vocabulary)}"
            )
        self._vocabulary = vocabulary
        self._vectors = vectors

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary indexing the rows of :attr:`vectors`."""
        return self._vocabulary

    @property
    def vectors(self) -> np.ndarray:
        """The raw embedding matrix (not a copy; treat as read-only)."""
        return self._vectors

    @property
    def dimension(self) -> int:
        """Dimensionality of each word vector."""
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._vocabulary

    def vector(self, word: str) -> np.ndarray:
        """Vector of ``word`` (case-insensitive); zeros when unknown.

        This is the paper's out-of-vocabulary policy: "Unknown words are
        mapped to a vector filled with zeroes."
        """
        index = self._vocabulary.get(word.lower())
        if index is None:
            return np.zeros(self.dimension)
        return self._vectors[index]

    def embed_text(self, text: str) -> np.ndarray:
        """Average of the word vectors of ``text`` (Table I rows 4 and 6).

        Words are extracted with :func:`repro.text.tokenize.words`.  Text
        containing no words -- or only unknown words -- yields the zero
        vector, the neutral element of averaging.
        """
        tokens = words(text)
        if not tokens:
            return np.zeros(self.dimension)
        total = np.zeros(self.dimension)
        for token in tokens:
            total += self.vector(token)
        return total / len(tokens)

    def cosine_similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two words' vectors (0.0 when either is zero)."""
        return cosine(self.vector(a), self.vector(b))

    def nearest(self, word: str, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` vocabulary words most cosine-similar to ``word``.

        The query word itself is excluded.  Useful for diagnostics and for
        asserting that synonym groups were learned.
        """
        query = self.vector(word)
        norm = np.linalg.norm(query)
        if norm == 0:
            return []
        norms = np.linalg.norm(self._vectors, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = self._vectors @ query / (norms * norm)
        scores = np.nan_to_num(scores, nan=-1.0)
        own = self._vocabulary.get(word.lower())
        if own is not None:
            scores[own] = -np.inf
        top = np.argsort(scores)[::-1][:k]
        return [(self._vocabulary.token_of(int(i)), float(scores[i])) for i in top]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity with the zero-vector convention of the paper.

    Zero vectors (unknown text) have similarity 0 with everything,
    including other zero vectors -- the classifier must not be told two
    unknown values are identical.
    """
    norm_u = np.linalg.norm(u)
    norm_v = np.linalg.norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return float(np.dot(u, v) / (norm_u * norm_v))

"""Tests for WordEmbeddings and hashing embeddings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.embeddings.base import WordEmbeddings, cosine
from repro.embeddings.hashing import hash_embeddings, hash_vector
from repro.embeddings.vocab import Vocabulary
from repro.errors import ConfigurationError, DataError, DimensionError


@pytest.fixture()
def embeddings():
    vocab = Vocabulary(["mp", "megapixels", "grams"])
    vectors = np.array(
        [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]
    )
    return WordEmbeddings(vocab, vectors)


class TestWordEmbeddings:
    def test_vector_lookup_case_insensitive(self, embeddings):
        assert np.allclose(embeddings.vector("MP"), [1.0, 0.0])

    def test_oov_is_zero_vector(self, embeddings):
        # The paper: "Unknown words are mapped to a vector filled with zeroes."
        assert np.allclose(embeddings.vector("ghost"), 0.0)

    def test_embed_text_averages(self, embeddings):
        vector = embeddings.embed_text("mp grams")
        assert np.allclose(vector, [0.5, 0.5])

    def test_embed_text_counts_oov_in_average(self, embeddings):
        # An unknown word contributes a zero vector but still divides.
        vector = embeddings.embed_text("mp ghost")
        assert np.allclose(vector, [0.5, 0.0])

    def test_embed_empty_text(self, embeddings):
        assert np.allclose(embeddings.embed_text(""), 0.0)
        assert np.allclose(embeddings.embed_text("123 !!"), 0.0)

    def test_contains(self, embeddings):
        assert "mp" in embeddings
        assert "MP" in embeddings
        assert "ghost" not in embeddings

    def test_nearest_excludes_self(self, embeddings):
        names = [word for word, _ in embeddings.nearest("mp", k=2)]
        assert "mp" not in names
        assert names[0] == "megapixels"

    def test_nearest_of_unknown_word_empty(self, embeddings):
        assert embeddings.nearest("ghost") == []

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            WordEmbeddings(Vocabulary(["a"]), np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            WordEmbeddings(Vocabulary(["a"]), np.zeros(3))


class TestCosine:
    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.zeros(3)) == 0.0
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_parallel(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


class TestHashing:
    def test_stable_across_calls(self):
        assert np.allclose(hash_vector("word", 8), hash_vector("word", 8))

    def test_case_insensitive(self):
        assert np.allclose(hash_vector("Word", 8), hash_vector("word", 8))

    def test_salt_changes_vector(self):
        assert not np.allclose(hash_vector("word", 8, salt=0), hash_vector("word", 8, salt=1))

    def test_unit_norm(self):
        assert np.linalg.norm(hash_vector("word", 16)) == pytest.approx(1.0)

    def test_build_embeddings(self):
        emb = hash_embeddings(["a", "b", "a"], dimension=8)
        assert len(emb) == 2
        assert emb.dimension == 8

    @given(st.text(alphabet="abcdef", min_size=1, max_size=8))
    def test_near_orthogonality(self, word):
        other = word + "x"
        emb = hash_embeddings([word, other], dimension=64)
        assert abs(emb.cosine_similarity(word, other)) < 0.6

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            hash_embeddings(["a"], dimension=0)


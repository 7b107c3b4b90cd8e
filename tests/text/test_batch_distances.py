"""Property-based equivalence: batched kernel == scalar reference.

The batched kernel must be a pure optimisation: for any input, every
row of :func:`repro.text.batch.name_distance_matrix` must equal
:func:`repro.text.similarity.name_distance_vector` bit for bit.  The
generators below stress the regimes where the DP vectorisation could
diverge: empty strings, single characters, repeated characters (the
Damerau transposition bookkeeping), shared prefixes (Jaro-Winkler),
multi-byte unicode, and case folding that changes string length.
The same test also runs on real inputs: every cross-source name pair of
headphones at the small scale and of the four domains at the tiny one.
"""

import random

import numpy as np
import pytest

from repro.core import PairUniverse
from repro.datasets import DATASET_NAMES, load_dataset
from repro.text.batch import (
    COLUMNS,
    name_distance_matrix,
    unique_lowered_pairs,
)
from repro.text.similarity import PAIR_DISTANCE_NAMES, name_distance_vector

ALPHABETS = [
    "ab",  # tiny alphabet: maximises repeats and transpositions
    "abcdefgh",
    "abcdefghijklmnopqrstuvwxyz0123456789 _-",
    "résolution mégapixels größe 日本語カメラ",
    "AaBbİıẞß😀",  # case folding changes lengths ('İ'.lower() has len 2)
]


def _random_pairs(seed: int, count: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        alphabet = rng.choice(ALPHABETS)
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        if rng.random() < 0.3:
            # Mutate a copy: realistic near-duplicates with transpositions.
            chars = list(a)
            for _ in range(rng.randrange(0, 3)):
                if len(chars) >= 2:
                    i = rng.randrange(len(chars) - 1)
                    chars[i], chars[i + 1] = chars[i + 1], chars[i]
            b = "".join(chars)
        else:
            b = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 14))
            )
        pairs.append((a, b))
    return pairs


#: Generated datasets whose universe names are an equivalence input, as
#: ``name/scale``.
REAL_UNIVERSES = ["headphones/small", *(f"{name}/tiny" for name in DATASET_NAMES)]


def _equivalence_pairs(case: int | str) -> list[tuple[str, str]]:
    """Random pairs for a seed, or a real dataset's universe names."""
    if isinstance(case, int):
        return _random_pairs(case, 150)
    name, scale = case.split("/")
    universe = PairUniverse(load_dataset(name, scale=scale))
    return [(pair.left.name, pair.right.name) for pair in universe.pairs]


class TestBatchedEquivalence:
    def test_columns_match_registry_order(self):
        assert COLUMNS == PAIR_DISTANCE_NAMES

    @pytest.mark.parametrize("case", [*range(8), *REAL_UNIVERSES])
    def test_random_unicode_pairs_match_reference_exactly(self, case):
        pairs = _equivalence_pairs(case)
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

    def test_known_edge_cases(self):
        pairs = [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("a", "a"),
            ("ca", "abc"),  # OSA=3 vs full Damerau=2 territory
            ("ab", "ba"),
            ("martha", "marhta"),
            ("Resolution", "resolution"),
            ("megapixels", "pixel count"),
            ("aaaa", "aa"),
            ("abab", "baba"),
        ]
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

    def test_symmetry_and_dedup(self):
        pairs = [("Width", "height"), ("height", "Width"), ("width", "HEIGHT")]
        uniq, inverse = unique_lowered_pairs(pairs)
        assert len(uniq) == 1
        assert inverse.tolist() == [0, 0, 0]
        matrix = name_distance_matrix(pairs)
        np.testing.assert_array_equal(matrix[0], matrix[1])
        np.testing.assert_array_equal(matrix[0], matrix[2])

    def test_empty_input(self):
        assert name_distance_matrix([]).shape == (0, 8)

    def test_identical_names_are_all_zero(self):
        matrix = name_distance_matrix([("focal length", "Focal Length")])
        np.testing.assert_array_equal(matrix, np.zeros((1, 8)))


class TestDegenerateBuckets:
    def test_single_character_pairs(self):
        pairs = [("a", "a"), ("a", "b"), ("x", ""), ("", "y"), ("ß", "s")]
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

    def test_all_identical_pairs_batch(self):
        pairs = [("impedance", "impedance")] * 25
        matrix = name_distance_matrix(pairs)
        np.testing.assert_array_equal(matrix, np.zeros((25, 8)))

    def test_all_empty_pairs_batch(self):
        pairs = [("", "")] * 5
        reference = np.array([name_distance_vector("", "")] * 5)
        np.testing.assert_array_equal(name_distance_matrix(pairs), reference)


class TestBitParallelWordBoundary:
    """The 64-bit word guard: at and past it, results stay bit-exact.

    Short sides up to 64 characters ride the single-word bit-parallel
    Levenshtein/OSA kernels; anything longer falls back to the banded
    DP.  Both regimes -- and a mixed batch straddling the boundary --
    must equal the scalar reference exactly.
    """

    @staticmethod
    def _boundary_pairs():
        rng = random.Random(1234)
        alphabet = "abcdefghij "
        pairs = []
        for length in (1, 31, 32, 33, 63, 64, 65, 66, 80, 100):
            a = "".join(rng.choice(alphabet) for _ in range(length))
            chars = list(a)
            for _ in range(4):
                i = rng.randrange(len(chars))
                chars[i] = rng.choice(alphabet)
            pairs.append((a, "".join(chars)))
            pairs.append((a, a[: length // 2]))
        return pairs

    def test_lengths_around_word_size_match_reference(self):
        pairs = self._boundary_pairs()
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

    def test_mixed_batch_with_long_outlier_uses_fallback_everywhere(self):
        # One >64 short side drops the whole batch onto the banded DP
        # path; the short pairs must still be exact there.
        long_name = "very long property name " * 5  # 120 chars
        pairs = [
            ("width", "height"),
            ("martha", "marhta"),
            (long_name, long_name[:70]),
            (long_name, "width"),
        ]
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_long_pairs_match_reference_exactly(self, seed):
        rng = random.Random(9000 + seed)
        alphabet = "abcdefghijklmnopqrstuvwxyz 0123456789"
        pairs = []
        for _ in range(40):
            a = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(55, 90))
            )
            b = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 90))
            )
            pairs.append((a, b))
        batched = name_distance_matrix(pairs)
        reference = np.array([name_distance_vector(a, b) for a, b in pairs])
        np.testing.assert_array_equal(batched, reference)

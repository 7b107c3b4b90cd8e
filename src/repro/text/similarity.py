"""Registry of normalised name distances (Table I rows 8-15).

LEAPME's pair feature vector contains eight string distances between the two
property names.  :func:`name_distance_vector` computes them one pair at a
time in a fixed, documented order; it is the test oracle of the batched
kernel (:mod:`repro.text.batch`), which every ``src/`` caller goes through.
:func:`normalized_distance` exposes each distance by name.

All values are scaled into [0, 1] where 0 means identical; the three raw edit
distances are normalised by the longer string length.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.text.jaro import jaro_winkler_distance
from repro.text.lcs import longest_common_substring_distance
from repro.text.levenshtein import (
    damerau_levenshtein_distance,
    levenshtein_distance,
    optimal_string_alignment_distance,
)
from repro.text.ngrams import (
    ngram_cosine_distance,
    ngram_distance,
    ngram_jaccard_distance,
)


def _normalize_edit(distance: int, a: str, b: str) -> float:
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return min(1.0, distance / longest)


def _osa(a: str, b: str) -> float:
    return _normalize_edit(optimal_string_alignment_distance(a, b), a, b)


def _levenshtein(a: str, b: str) -> float:
    return _normalize_edit(levenshtein_distance(a, b), a, b)


def _damerau(a: str, b: str) -> float:
    return _normalize_edit(damerau_levenshtein_distance(a, b), a, b)


def _trigram(a: str, b: str) -> float:
    return ngram_distance(a, b, n=3)


def _trigram_cosine(a: str, b: str) -> float:
    return ngram_cosine_distance(a, b, n=3)


def _trigram_jaccard(a: str, b: str) -> float:
    return ngram_jaccard_distance(a, b, n=3)


#: Distance name -> callable, in the order of Table I rows 8-15.
DISTANCE_FUNCTIONS: dict[str, Callable[[str, str], float]] = {
    "osa": _osa,
    "levenshtein": _levenshtein,
    "damerau_levenshtein": _damerau,
    "lcs": longest_common_substring_distance,
    "ngram": _trigram,
    "ngram_cosine": _trigram_cosine,
    "ngram_jaccard": _trigram_jaccard,
    "jaro_winkler": jaro_winkler_distance,
}

#: Stable feature order for the 8 name-distance features.
PAIR_DISTANCE_NAMES: tuple[str, ...] = tuple(DISTANCE_FUNCTIONS)


def normalized_distance(name: str, a: str, b: str) -> float:
    """Compute a single named distance, scaled into [0, 1].

    >>> normalized_distance("levenshtein", "abc", "abc")
    0.0
    """
    try:
        function = DISTANCE_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(PAIR_DISTANCE_NAMES)
        raise ConfigurationError(f"unknown distance {name!r}; known: {known}") from None
    return function(a, b)


def name_distance_vector(a: str, b: str) -> list[float]:
    """All eight Table I name distances, in :data:`PAIR_DISTANCE_NAMES` order.

    Names are compared case-insensitively, matching the uncased embedding
    corpus used by the paper.

    >>> name_distance_vector("Resolution", "resolution")
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    """
    a_low, b_low = a.lower(), b.lower()
    return [function(a_low, b_low) for function in DISTANCE_FUNCTIONS.values()]

"""The in-process distance memo: bounded, clearable, persistently backed.

PR 6's follow daemon made the memo long-lived, so it must stop growing
without bound; the persistent cache must make restarts warm -- a pair
computed before a process death is never recomputed after it, which the
``computed`` / ``cache_hit`` counter split makes directly assertable.
"""

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.core.pipeline import (
    clear_distance_memo,
    disable_persistent_distances,
    enable_persistent_distances,
    flush_persistent_distances,
    name_distance_block,
)
from repro.text.distance_cache import DistanceCache
from repro.text.similarity import name_distance_vector


@pytest.fixture(autouse=True)
def isolated_memo():
    """Each test starts from a cold memo and leaves no persistent hook."""
    clear_distance_memo()
    disable_persistent_distances()
    yield
    clear_distance_memo()
    disable_persistent_distances()


def _pairs(count, stem="name"):
    return [(f"{stem} {i}", f"{stem}_{i}") for i in range(count)]


class TestBoundedMemo:
    def test_memo_never_exceeds_cap(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_DISTANCE_MEMO_CAP", 8)
        name_distance_block(_pairs(30))
        assert len(pipeline_module._DISTANCE_CACHE) <= 8

    def test_eviction_is_first_in_first_out(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_DISTANCE_MEMO_CAP", 4)
        for pair in _pairs(4):
            name_distance_block([pair])
        oldest = next(iter(pipeline_module._DISTANCE_CACHE))
        name_distance_block([("fresh", "entry")])
        assert oldest not in pipeline_module._DISTANCE_CACHE
        assert len(pipeline_module._DISTANCE_CACHE) == 4

    def test_clear_empties_the_memo(self):
        name_distance_block(_pairs(5))
        assert pipeline_module._DISTANCE_CACHE
        clear_distance_memo()
        assert not pipeline_module._DISTANCE_CACHE

    def test_evicted_pairs_are_recomputed_identically(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "_DISTANCE_MEMO_CAP", 2)
        first = name_distance_block([("height", "width")])[0]
        name_distance_block(_pairs(10))  # evicts the first entry
        np.testing.assert_array_equal(
            name_distance_block([("height", "width")])[0], first
        )


class TestCounterSplit:
    def test_cold_block_is_all_computed(self):
        counters = {}
        name_distance_block(_pairs(6), counters=counters)
        assert counters == {"computed": 6, "cache_hit": 0}

    def test_warm_block_is_all_cache_hit(self):
        name_distance_block(_pairs(6))
        counters = {}
        name_distance_block(_pairs(6), counters=counters)
        assert counters == {"computed": 0, "cache_hit": 6}

    def test_duplicate_misses_count_once_per_row(self):
        # Three rows, one unique missing pair: the kernel runs once but
        # every requested row is accounted for.
        counters = {}
        block = name_distance_block(
            [("a b", "c d"), ("C D", "A B"), ("a b", "c d")],
            counters=counters,
        )
        assert counters["computed"] + counters["cache_hit"] == 3
        np.testing.assert_array_equal(block[0], block[1])
        np.testing.assert_array_equal(block[0], block[2])


class TestPersistentWiring:
    def test_restart_serves_every_seen_pair_without_recompute(self, tmp_path):
        path = tmp_path / "distances.npz"
        pairs = _pairs(12)

        enable_persistent_distances(path)
        cold = {}
        first = name_distance_block(pairs, counters=cold)
        assert cold["computed"] == 12
        assert flush_persistent_distances()
        disable_persistent_distances()

        # Simulated process restart: in-process memo gone, file remains.
        clear_distance_memo()
        cache = enable_persistent_distances(path)
        assert cache.loaded_entries == 12
        warm = {}
        second = name_distance_block(pairs, counters=warm)
        assert warm == {"computed": 0, "cache_hit": 12}
        np.testing.assert_array_equal(second, first)

    def test_rows_match_the_scalar_reference_after_reload(self, tmp_path):
        path = tmp_path / "distances.npz"
        enable_persistent_distances(path)
        name_distance_block([("Resolution", "resolution dpi")])
        flush_persistent_distances()
        disable_persistent_distances()
        clear_distance_memo()

        enable_persistent_distances(path)
        row = name_distance_block([("Resolution", "resolution dpi")])[0]
        np.testing.assert_array_equal(
            row, np.array(name_distance_vector("resolution", "resolution dpi"))
        )

    def test_single_pair_block_records_to_the_persistent_cache(self, tmp_path):
        path = tmp_path / "distances.npz"
        enable_persistent_distances(path)
        name_distance_block([("Gain", "gain db")])
        assert flush_persistent_distances()
        assert ("gain", "gain db") in DistanceCache(path)

    def test_flush_without_cache_is_a_noop(self):
        assert not flush_persistent_distances()

    def test_clean_cache_does_not_rewrite(self, tmp_path):
        path = tmp_path / "distances.npz"
        enable_persistent_distances(path)
        name_distance_block(_pairs(3))
        assert flush_persistent_distances()
        assert not flush_persistent_distances()  # nothing new since

    def test_corrupt_file_recomputes_and_heals(self, tmp_path):
        path = tmp_path / "distances.npz"
        enable_persistent_distances(path)
        name_distance_block(_pairs(4))
        flush_persistent_distances()
        disable_persistent_distances()
        clear_distance_memo()

        path.write_bytes(b"garbage")
        cache = enable_persistent_distances(path)
        assert cache.loaded_entries == 0
        counters = {}
        name_distance_block(_pairs(4), counters=counters)
        assert counters["computed"] == 4
        assert flush_persistent_distances()
        assert DistanceCache(path).loaded_entries == 4

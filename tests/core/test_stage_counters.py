"""``stage_calls`` counts the work actually done, also under threads.

The counters are what ``/statz`` and the benchmarks report, so they must
mean what was computed: the instance stages count the distinct values
they featurized (a value shared by several properties is featurized
once per table build), and the name-distance hit/miss split must add up
to the rows assembled even when several request threads assemble on
one shared pipeline at once.
"""

import sys
import threading

import pytest

from repro.core import FeatureConfig, PairUniverse, PropertyFeatureTable
from repro.core.pipeline import FeaturePipeline, clear_distance_memo

from tests.conftest import direct_pair_matrix


@pytest.fixture(autouse=True)
def cold_memo():
    clear_distance_memo()
    yield
    clear_distance_memo()


def _distinct_values(dataset, refs):
    return {value for ref in refs for value in dataset.values_of(ref)}


class TestInstanceCounters:
    def test_cold_build_counts_distinct_values(self, tiny_headphones, tiny_embeddings):
        pipeline = FeaturePipeline(tiny_embeddings)
        PropertyFeatureTable(tiny_headphones, tiny_embeddings, pipeline=pipeline)
        refs = tiny_headphones.properties()
        distinct = len(_distinct_values(tiny_headphones, refs))
        total = sum(len(tiny_headphones.values_of(ref)) for ref in refs)
        assert distinct < total  # shared values exist, so the dedup shows
        assert pipeline.stage_calls["instance_meta"] == distinct
        assert pipeline.stage_calls["instance_embedding"] == distinct

    def test_only_new_properties_values_count(self, tiny_headphones, tiny_embeddings):
        sources = sorted(tiny_headphones.sources())
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        pipeline = FeaturePipeline(tiny_embeddings)
        PropertyFeatureTable(base, tiny_embeddings, pipeline=pipeline)
        before = dict(pipeline.stage_calls)
        PropertyFeatureTable(tiny_headphones, tiny_embeddings, pipeline=pipeline)
        new_refs = tiny_headphones.properties(sources[-1])
        distinct = len(_distinct_values(tiny_headphones, new_refs))
        for stage in ("instance_meta", "instance_embedding"):
            assert pipeline.stage_calls[stage] - before[stage] == distinct

    def test_warm_rebuild_counts_nothing(self, tiny_headphones, tiny_embeddings):
        pipeline = FeaturePipeline(tiny_embeddings)
        PropertyFeatureTable(tiny_headphones, tiny_embeddings, pipeline=pipeline)
        before = dict(pipeline.stage_calls)
        PropertyFeatureTable(tiny_headphones, tiny_embeddings, pipeline=pipeline)
        assert dict(pipeline.stage_calls) == before


class TestConcurrentDistanceCounters:
    def test_split_adds_up_across_threads(self, tiny_headphones, tiny_embeddings):
        threads_n, rounds = 8, 3
        pipeline = FeaturePipeline(tiny_embeddings)
        table = PropertyFeatureTable(
            tiny_headphones, tiny_embeddings, pipeline=pipeline
        )
        pairs = list(PairUniverse(tiny_headphones).pairs)
        chunks = [pairs[i::threads_n] for i in range(threads_n)]
        barrier = threading.Barrier(threads_n)
        errors: list[Exception] = []

        def assemble(chunk):
            try:
                barrier.wait(timeout=30)
                for _ in range(rounds):
                    for start in range(0, len(chunk), 4):
                        batch = chunk[start : start + 4]
                        direct_pair_matrix(table, batch, FeatureConfig())
            except Exception as error:  # surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=assemble, args=(chunk,)) for chunk in chunks
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        calls = pipeline.stage_calls
        assert (
            calls["name_distance.computed"] + calls["name_distance.cache_hit"]
            == rounds * len(pairs)
        )

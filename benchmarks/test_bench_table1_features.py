"""Table I: the feature inventory and its extraction cost.

Asserts the exact feature counts the paper reports (at 300-d
embeddings: 329 instance features, 629 property features, 637 pair
features) and benchmarks feature-extraction throughput on real data.
"""

from __future__ import annotations

from conftest import bench_dataset, bench_embeddings, run_once

from repro.core import (
    FeatureConfig,
    PairFeatureStore,
    PairUniverse,
    PropertyFeatureTable,
)
from repro.core.instance_features import NUM_META_FEATURES, instance_meta_matrix
from repro.core.pipeline import NUM_NAME_DISTANCES, FeatureSchema


def test_bench_instance_features(benchmark):
    """Throughput of Table I rows 1-3 over a dataset's instance values.

    Also asserts the paper's instance-feature count: rows 1-3 are 29
    meta-features, row 4 a 300-d embedding, totalling 329.
    """
    assert NUM_META_FEATURES + 300 == 329
    dataset = bench_dataset("headphones")
    values = [instance.value for instance in dataset.instances]

    matrix = run_once(benchmark, lambda: instance_meta_matrix(values))
    assert matrix.shape == (len(values), NUM_META_FEATURES)
    benchmark.extra_info["n_values"] = len(values)


def test_bench_property_table(benchmark):
    """Cost of Algorithm 1 steps 1-4 (the full property feature table).

    Also asserts the paper's property-feature count at 300 dimensions:
    row 5 averages the 329 instance features, row 6 adds a 300-d name
    embedding, totalling 629.
    """
    assert (NUM_META_FEATURES + 300) + 300 == 629
    dataset = bench_dataset("headphones")
    embeddings = bench_embeddings("headphones")

    table = run_once(benchmark, lambda: PropertyFeatureTable(dataset, embeddings))
    assert len(table) == len(dataset.properties())
    benchmark.extra_info["n_properties"] = len(table)


def test_bench_pair_features(benchmark):
    """Cost of computing the pair feature matrix for all candidate pairs.

    Times a :class:`PairFeatureStore` build over a prebuilt property
    table and pair universe plus one full-width gather of every
    universe row.  Also asserts the paper's pair-feature count at 300 dimensions:
    row 7 is the 629-d property difference, rows 8-15 add 8 string
    distances, totalling 637.
    """
    assert len(FeatureSchema(300).column_names(FeatureConfig())) == 637
    assert NUM_NAME_DISTANCES == 8
    dataset = bench_dataset("headphones")
    embeddings = bench_embeddings("headphones")
    table = PropertyFeatureTable(dataset, embeddings)
    universe = PairUniverse(dataset)

    pairs = universe.subset()
    matrix = run_once(
        benchmark,
        lambda: PairFeatureStore(table, universe).gather(pairs, slice(None)),
    )
    assert matrix.shape[0] == len(universe)
    benchmark.extra_info["n_pairs"] = len(universe)
    benchmark.extra_info["n_features"] = matrix.shape[1]

"""The factored store's gathers are the reference pair rows, bit for bit.

A :class:`PairFeatureStore` holds no pair matrix: every gather computes
its rows from the property rows and the name-pair table.  Each gather
here is compared, as ``uint32`` views, with
``tests.core.oracle.pair_matrix(table, *universe.ends(rows), FeatureConfig())``
restricted to the requested columns -- for empty, unsorted and repeated
row subsets, slice and index-array columns, and all nine configs.
``build_pairs`` sets, rows of another universe of the same dataset,
gather their own pairs' reference rows through either store.  Pruned
pairs (computed from their property rows) must equal the null-policy
store's rows, and a grown store's gathers must equal a cold rebuild's.
"""

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import FeatureConfig, PairFeatureStore
from repro.data.pairs import PairSet, build_pairs

from tests.conftest import pair_request
from tests.core.oracle import pair_matrix


@pytest.fixture(scope="module")
def stores(tiny_headphones, tiny_embeddings):
    return {
        label: PairFeatureStore.build(
            tiny_headphones, tiny_embeddings, policy=CandidatePolicy.from_label(label)
        )
        for label in ("null", "minhash")
    }


def reference(store, pairs, columns):
    full = pair_matrix(store.table, *pairs.universe.ends(pairs.rows), FeatureConfig())
    return full[:, columns]


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def row_cases(n):
    rng = np.random.default_rng(11)
    subset = np.sort(rng.choice(n, size=n // 3, replace=False))
    return {
        "empty": np.array([], dtype=np.intp),
        "all": np.arange(n),
        "sorted": subset,
        "unsorted": rng.permutation(subset),
        "repeated": rng.integers(0, n, size=2 * n),
    }


def request_cases(store):
    """Row subsets of the store's universe, plus ``build_pairs`` sets.

    ``build_pairs`` enumerates its own null-policy universe of the same
    dataset, a different object from any store's.
    """
    dataset = store.universe.dataset
    cases = {
        name: PairSet(store.universe, rows)
        for name, rows in row_cases(len(store.universe)).items()
    }
    cases["build_pairs"] = build_pairs(dataset)
    cases["build_pairs_across"] = build_pairs(
        dataset, dataset.sources()[:3], within=False
    )
    assert cases["build_pairs"].universe is not store.universe
    return cases


def column_cases(width):
    """Slices and index arrays over a ``width``-column full matrix."""
    return {
        "full": slice(None),
        "diffs": slice(10, 40),
        "names": slice(-8, None),
        "straddle": slice(width - 15, width - 4),
        "sparse": np.array([0, 3, 28, 29, 40, width - 8, width - 5, width - 1]),
        "unordered": np.array([width - 1, 2, width - 5, 30, 0, width - 8, 29]),
    }


COLUMN_CASES = list(column_cases(0))


@pytest.mark.parametrize("policy", ["null", "minhash"])
@pytest.mark.parametrize("columns", COLUMN_CASES, ids=str)
def test_gather_columns_equals_reference(stores, policy, columns):
    store = stores[policy]
    selection = column_cases(store.schema.total_width)[columns]
    for pairs in request_cases(store).values():
        served = store.gather(pairs, selection)
        assert not served.flags.writeable
        assert_bits_equal(served, reference(store, pairs, selection))


@pytest.mark.parametrize("policy", ["null", "minhash"])
@pytest.mark.parametrize("config", FeatureConfig.grid(), ids=lambda c: c.label())
def test_every_config_equals_reference(stores, policy, config):
    store = stores[policy]
    columns = store.schema.active_columns(config)
    for pairs in request_cases(store).values():
        assert_bits_equal(
            store.features(pairs, config), reference(store, pairs, columns)
        )


def _name_pair(pair):
    return tuple(sorted((pair.left.name.lower(), pair.right.name.lower())))


def test_pruned_pairs_equal_the_null_store_rows(stores):
    null, blocked = stores["null"], stores["minhash"]
    kept = {pair.key for pair in blocked.universe.pairs}
    kept_names = {_name_pair(pair) for pair in blocked.universe.pairs}
    pruned = [pair for pair in null.universe.pairs if pair.key not in kept]
    # Pruned pairs whose name pair the blocked store's table lacks go
    # through the distance memo; the rest read the table.
    absent = [pair for pair in pruned if _name_pair(pair) not in kept_names]
    present = [pair for pair in pruned if _name_pair(pair) in kept_names]
    assert absent and present
    requests = [
        pair_request(null.universe.dataset, pairs)
        for pairs in (absent[:25], present[:25], absent[:10] + present[:10])
    ]
    for config in FeatureConfig.grid():
        for request in requests:
            assert_bits_equal(
                blocked.features(request, config), null.features(request, config)
            )


@pytest.mark.parametrize("policy", ["null", "minhash"])
def test_with_source_gathers_equal_cold_rebuild(
    tiny_headphones, tiny_embeddings, policy
):
    sources = sorted(tiny_headphones.sources())
    base = tiny_headphones.restrict_to_sources(sources[:-1])
    addition = tiny_headphones.restrict_to_sources(sources[-1:])
    candidate_policy = CandidatePolicy.from_label(policy)
    store = PairFeatureStore.build(base, tiny_embeddings, policy=candidate_policy)
    grown, _ = store.with_source(addition)
    cold = PairFeatureStore.build(
        base.merged_with(addition), tiny_embeddings, policy=candidate_policy
    )
    assert len(grown.universe) == len(cold.universe)
    for rows in row_cases(len(cold.universe)).values():
        for columns in column_cases(cold.schema.total_width).values():
            assert_bits_equal(
                grown.gather(PairSet(grown.universe, rows), columns),
                cold.gather(PairSet(cold.universe, rows), columns),
            )

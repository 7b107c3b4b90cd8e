"""The Table II driver equals the one-matcher oracle, cell for cell.

The driver runs each dataset of a block as one grid: the three LEAPME
variants share a feature store and a score pass.  Each of its cells
must equal the oracle loop run on that system alone, for every block,
on every tiny-scale dataset.
"""

import pytest

from repro.datasets import DATASET_NAMES, build_domain_embeddings, load_dataset
from repro.evaluation import RunSettings, run_table2_block
from repro.evaluation.table2 import TABLE2_FRACTIONS, table2_factories
from tests.evaluation.oracle import evaluate_one_matcher

LEAPME = ["LEAPME", "LEAPME(emb)", "LEAPME(-emb)"]
NAME_BASED = ["Nezhadi", "AML", "FCA-Map", "SemProp"]

BLOCK_SYSTEMS = {
    "instances": LEAPME + ["LSH"],
    "names": LEAPME + NAME_BASED,
    "both": LEAPME + NAME_BASED + ["LSH"],
}


@pytest.fixture(scope="module")
def inputs():
    return [
        (load_dataset(name, scale="tiny"), build_domain_embeddings(name, scale="tiny"))
        for name in DATASET_NAMES
    ]


def _cells(results):
    return [
        (
            r.matcher_name,
            r.dataset_name,
            r.settings.train_fraction,
            r.qualities,
            r.skipped_repetitions,
        )
        for r in results
    ]


@pytest.mark.parametrize("block", list(BLOCK_SYSTEMS))
def test_driver_equals_oracle_cell_for_cell(block, inputs):
    results = run_table2_block(block, inputs, 1)
    references = []
    for dataset, embeddings in inputs:
        factories = table2_factories(block, embeddings)
        assert list(factories) == BLOCK_SYSTEMS[block]
        for fraction in TABLE2_FRACTIONS:
            settings = RunSettings(train_fraction=fraction, repetitions=1)
            references.extend(
                evaluate_one_matcher(factory(), dataset, settings, label=label)
                for label, factory in factories.items()
            )
    assert _cells(results) == _cells(references)

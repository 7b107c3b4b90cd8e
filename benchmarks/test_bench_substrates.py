"""Extension D: substrate micro-benchmarks.

Performance baselines for the building blocks everything else sits on:
string distances (the dominant cost of pair features), embedding
training, the neural network, and minhash signatures.  These catch
accidental complexity regressions in the from-scratch implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LeapmeClassifier, LeapmeConfig, LeapmeMatcher, PairFeatureStore
from repro.baselines.lsh import MinHasher
from repro.core.pipeline import clear_distance_memo
from repro.data.pairs import sample_training_pairs
from repro.data.splits import repeated_source_splits
from repro.datasets import build_domain_embeddings, load_dataset
from repro.embeddings import CorpusGenerator, SynonymLexicon, build_cooccurrence
from repro.embeddings.glove_like import train_glove_like
from repro.nn.schedule import TrainingSchedule, paper_schedule
from repro.text.similarity import name_distance_vector

NAMES = [
    "camera resolution", "effective pixels", "megapixel", "mp rating",
    "shutter speed", "exposure time", "optical zoom", "battery life",
    "SCREEN_SIZE", "display-diagonal", "sensor size", "image stabilization",
]
PAIRS = [(a, b) for i, a in enumerate(NAMES) for b in NAMES[i + 1 :]]


def test_bench_name_distances(benchmark):
    """All 8 Table I string distances over 66 realistic name pairs."""

    def run():
        return [name_distance_vector(a, b) for a, b in PAIRS]

    vectors = benchmark(run)
    assert len(vectors) == len(PAIRS)


def test_bench_embedding_training(benchmark):
    """PPMI+SVD training on a mid-sized synthetic corpus."""
    lexicon = SynonymLexicon(
        [[f"w{g}m{m}" for m in range(4)] for g in range(30)]
    )
    generator = CorpusGenerator(lexicon, seed=0)
    sentences = generator.corpus(sentences_per_group=20)

    def run():
        counts = build_cooccurrence(sentences)
        return train_glove_like(counts, dimension=64, seed=0)

    embeddings = benchmark.pedantic(run, rounds=1, iterations=1)
    assert embeddings.dimension == 64


def test_bench_network_training(benchmark):
    """The paper's network (128/64/2) on 1k pairs of 137-d features."""
    rng = np.random.default_rng(0)
    features = rng.standard_normal((1000, 137))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    config = LeapmeConfig(schedule=TrainingSchedule.from_pairs([(5, 1e-3)]))

    def run():
        return LeapmeClassifier(config).fit(features, labels)

    classifier = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (classifier.predict(features) == labels).mean() > 0.9


#: A headphones cell at the paper's 80%/20% split: training and test rows
#: by the 165 feature columns of the full configuration.
PAPER_CELL_TRAIN, PAPER_CELL_TEST, PAPER_CELL_COLUMNS = 564, 6_936, 165


def _paper_cell_classifier():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((PAPER_CELL_TRAIN, PAPER_CELL_COLUMNS))
    labels = (features[:, 0] - features[:, 1] > 0).astype(int)
    return LeapmeClassifier(LeapmeConfig(schedule=paper_schedule())), features, labels


def test_bench_paper_cell_training(benchmark):
    """The paper's network and 10+5+5-epoch schedule on 564 x 165."""
    classifier, features, labels = _paper_cell_classifier()
    fitted = benchmark.pedantic(
        lambda: classifier.fit(features, labels), rounds=3, iterations=1
    )
    assert fitted.history.epochs == 20
    assert (fitted.predict(features) == labels).mean() > 0.9


def test_bench_paper_cell_scoring(benchmark):
    """``match_scores`` of a trained paper network over 6,936 x 165 rows."""
    classifier, features, labels = _paper_cell_classifier()
    classifier.fit(features, labels)
    test_rows = np.random.default_rng(1).standard_normal(
        (PAPER_CELL_TEST, PAPER_CELL_COLUMNS)
    )
    scores = benchmark(lambda: classifier.match_scores(test_rows))
    assert scores.shape == (PAPER_CELL_TEST,)
    assert np.isfinite(scores).all()


def test_bench_engine_cell_scoring(benchmark):
    """The light network's ``score_pairs`` on a cameras 0.2-fraction test set.

    The grid engine's shape: 72,596 held-out pairs by 165 columns,
    gathered from the shared store and scored in row blocks.
    """
    dataset = load_dataset("cameras", scale="small", seed=0)
    embeddings = build_domain_embeddings("cameras", scale="small")
    store = PairFeatureStore.build(dataset, embeddings)
    split = next(repeated_source_splits(dataset, 0.2, repetitions=1, seed=0))
    train = list(split.train_sources)
    universe = store.universe
    training = sample_training_pairs(
        universe.subset(train, within=True), 2.0, np.random.default_rng([0, 0])
    )
    test = universe.subset(train, within=False)
    matcher = LeapmeMatcher(
        embeddings,
        config=LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3)),
    )
    matcher.attach_store(store)
    matcher.fit(dataset, training)
    scores = benchmark(lambda: matcher.score_pairs(dataset, test))
    assert scores.shape == (len(test),)
    assert np.isfinite(scores).all()


def test_bench_store_build(benchmark):
    """A cold shared-store build on cameras: universe, table, name-pair table.

    The grid engine's parent-side work before its pool forks: 75,478
    pairs over 397 property rows and 17,987 distinct name pairs, every
    property row and name distance computed afresh (new pipeline, empty
    distance memo) each round.
    """
    dataset = load_dataset("cameras", scale="small", seed=0)
    embeddings = build_domain_embeddings("cameras", scale="small")
    store = benchmark.pedantic(
        lambda: PairFeatureStore.build(dataset, embeddings),
        setup=clear_distance_memo,
        rounds=3,
        iterations=1,
    )
    clear_distance_memo()
    matrix = store.gather(store.universe.subset(), slice(None))
    assert matrix.shape == (len(store.universe), store.schema.total_width)
    assert store.pipeline.stage_calls["name_distance.cache_hit"] == 0


def test_bench_minhash_signatures(benchmark):
    """Minhash signatures over 200 token sets of ~30 tokens."""
    rng = np.random.default_rng(0)
    token_sets = [
        {f"token{int(t)}" for t in rng.integers(0, 500, size=30)} for _ in range(200)
    ]
    hasher = MinHasher(num_hashes=64)

    def run():
        return [hasher.signature(tokens) for tokens in token_sets]

    signatures = benchmark(run)
    assert len(signatures) == 200


@pytest.mark.parametrize("length", [8, 32])
def test_bench_single_distance_scaling(benchmark, length):
    """Edit-distance cost as the strings grow (quadratic DP)."""
    a = "ab" * (length // 2)
    b = "ba" * (length // 2)
    benchmark(lambda: name_distance_vector(a, b))

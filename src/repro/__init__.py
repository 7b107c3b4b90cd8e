"""LEAPME reproduction: learning-based property matching with embeddings.

A from-scratch implementation of the system described in "Towards the
smart use of embedding and instance features for property matching"
(Ayala, Hernandez, Ruiz, Rahm -- ICDE 2021), including every substrate it
depends on: string distances, trained word embeddings, a numpy neural
network, classical ML baselines, synthetic multi-source product datasets
and the full evaluation harness.

Quickstart::

    from repro import (
        LeapmeMatcher, build_domain_embeddings, build_pairs,
        evaluate_matcher, load_dataset,
    )

    dataset = load_dataset("cameras", scale="tiny")
    embeddings = build_domain_embeddings("cameras", scale="tiny")
    matcher = LeapmeMatcher(embeddings)
    result = evaluate_matcher(matcher, dataset)
    print(result.describe())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.blocking import (
    Blocker,
    MinHashBlocker,
    NullBlocker,
    TokenBlocker,
)
from repro.baselines import (
    AmlMatcher,
    FcaMapMatcher,
    LshMatcher,
    NezhadiMatcher,
    SemPropMatcher,
)
from repro.core import (
    BlockImportance,
    FeatureConfig,
    FeatureKinds,
    FeatureScope,
    LeapmeClassifier,
    LeapmeConfig,
    LeapmeMatcher,
    Matcher,
    permutation_importance,
    render_importance,
)
from repro.data import (
    Dataset,
    load_dataset_csv,
    PropertyInstance,
    PropertyRef,
    build_pairs,
    dataset_stats,
    sample_training_pairs,
    split_sources,
)
from repro.datasets import (
    DATASET_NAMES,
    build_domain_embeddings,
    domain_lexicon,
    load_dataset,
)
from repro.embeddings import WordEmbeddings
from repro.errors import ReproError
from repro.evaluation import (
    ExperimentRunner,
    PrecisionRecallCurve,
    precision_recall_curve,
    RunSettings,
    evaluate_matcher,
    format_table2,
    run_transfer_experiment,
)
from repro.graph import (
    FusedAttribute,
    IncrementalClusterer,
    fuse_clusters,
    SimilarityGraph,
    cluster_connected_components,
    cluster_correlation,
    cluster_star,
    clustering_metrics,
)
from repro.metrics import MatchQuality, evaluate_scores

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # data model
    "Dataset",
    "PropertyInstance",
    "PropertyRef",
    "build_pairs",
    "sample_training_pairs",
    "split_sources",
    "dataset_stats",
    # datasets
    "DATASET_NAMES",
    "load_dataset",
    "domain_lexicon",
    "build_domain_embeddings",
    "WordEmbeddings",
    # core
    "Matcher",
    "LeapmeMatcher",
    "LeapmeClassifier",
    "LeapmeConfig",
    "FeatureConfig",
    "FeatureScope",
    "FeatureKinds",
    "BlockImportance",
    "permutation_importance",
    "render_importance",
    "load_dataset_csv",
    "PrecisionRecallCurve",
    "precision_recall_curve",
    # baselines
    "AmlMatcher",
    "FcaMapMatcher",
    "NezhadiMatcher",
    "SemPropMatcher",
    "LshMatcher",
    # evaluation
    "MatchQuality",
    "evaluate_scores",
    "evaluate_matcher",
    "ExperimentRunner",
    "RunSettings",
    "format_table2",
    "run_transfer_experiment",
    # blocking
    "Blocker",
    "NullBlocker",
    "TokenBlocker",
    "MinHashBlocker",
    # graph
    "IncrementalClusterer",
    "FusedAttribute",
    "fuse_clusters",
    "SimilarityGraph",
    "cluster_connected_components",
    "cluster_star",
    "cluster_correlation",
    "clustering_metrics",
]

"""Permutation feature importance for a trained LEAPME matcher.

Section I motivates supervised learning because it "learn[s] what
features are more important and how they must be combined".  This module
makes that learned weighting inspectable: permutation importance shuffles
one feature *block* at a time across the evaluation pairs and measures
how much F1 drops -- a model-agnostic answer to "which of Table I's
feature families is the classifier actually using?".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.matcher import LeapmeMatcher
from repro.data.model import Dataset
from repro.data.pairs import PairSet
from repro.metrics import evaluate_scores


@dataclass(frozen=True)
class BlockImportance:
    """F1 impact of destroying one feature block."""

    block: str
    baseline_f1: float
    permuted_f1: float

    @property
    def importance(self) -> float:
        """F1 drop caused by permuting the block (higher = more relied on)."""
        return self.baseline_f1 - self.permuted_f1


def permutation_importance(
    matcher: LeapmeMatcher,
    dataset: Dataset,
    pairs: PairSet,
    repeats: int = 3,
    rng: np.random.Generator | None = None,
) -> list[BlockImportance]:
    """Per-block permutation importance of a fitted matcher.

    For every active feature block, the block's columns are shuffled
    across the evaluation pairs (breaking their relationship to the
    labels while preserving their marginal distribution) and the matcher
    is re-scored.  The mean F1 drop over ``repeats`` shuffles is the
    block's importance.  Results are sorted most-important first.
    """
    classifier = matcher.classifier  # raises NotFittedError when unfitted
    rng = rng if rng is not None else np.random.default_rng(0)
    matcher.prepare(dataset)
    features = matcher.store.features(pairs, matcher.feature_config)
    labels = pairs.labels()
    baseline = evaluate_scores(
        classifier.match_scores(features), labels, matcher.threshold
    ).f1
    results = []
    # The matcher's FeatureSchema is the single source of truth for block
    # geometry -- the same object that assembled ``features`` above, so
    # the slices cannot desync from the matrix.
    slices = matcher.schema.resolve(matcher.feature_config).slices()
    for block, columns in slices.items():
        drops = []
        for _ in range(repeats):
            permuted = features.copy()
            permutation = rng.permutation(len(permuted))
            permuted[:, columns] = permuted[permutation][:, columns]
            quality = evaluate_scores(
                classifier.match_scores(permuted), labels, matcher.threshold
            )
            drops.append(quality.f1)
        results.append(
            BlockImportance(
                block=block,
                baseline_f1=baseline,
                permuted_f1=float(np.mean(drops)),
            )
        )
    results.sort(key=lambda item: -item.importance)
    return results


def render_importance(importances: list[BlockImportance], width: int = 40) -> str:
    """ASCII bar chart of block importances."""
    if not importances:
        return "(no feature blocks)"
    top = max(importance.importance for importance in importances)
    scale = width / top if top > 0 else 0.0
    lines = [f"baseline F1 = {importances[0].baseline_f1:.3f}"]
    for item in importances:
        bar = "#" * max(0, int(round(item.importance * scale)))
        lines.append(
            f"  {item.block:<20} dF1={item.importance:+.3f} {bar}"
        )
    return "\n".join(lines)

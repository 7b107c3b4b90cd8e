"""Active learning: spend the labelling budget where it matters.

The paper stresses that LEAPME's "improvements are even achieved for
relatively little training data"; active learning pushes that further by
*choosing* which property pairs to label.  Uncertainty sampling is the
classic strategy: repeatedly train on the labelled pool, score the
unlabelled pool, and request labels for the pairs the classifier is
least sure about (score closest to the decision boundary).

This module implements the simulation harness: ground truth plays the
role of the human annotator, and the output is a learning curve
(labels spent -> F1 on a held-out pair set) for any
:class:`~repro.core.api.Matcher`-compatible supervised matcher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import Matcher
from repro.data.model import Dataset
from repro.data.pairs import PairSet
from repro.errors import ConfigurationError
from repro.metrics import MatchQuality, evaluate_scores


@dataclass(frozen=True)
class ActiveLearningCurve:
    """Learning curve of one labelling strategy."""

    strategy: str
    budgets: tuple[int, ...]
    f1_scores: tuple[float, ...]

    def final_f1(self) -> float:
        """F1 at the largest budget."""
        return self.f1_scores[-1] if self.f1_scores else 0.0

    def describe(self) -> str:
        """One-line summary."""
        points = ", ".join(
            f"{budget}:{f1:.2f}" for budget, f1 in zip(self.budgets, self.f1_scores)
        )
        return f"{self.strategy}: {points}"


def _seed_pool(
    labels: np.ndarray, seed_size: int, rng: np.random.Generator
) -> list[int]:
    """A class-balanced starting pool (annotators always seed with both)."""
    positives = np.flatnonzero(labels).tolist()
    negatives = np.flatnonzero(labels == 0).tolist()
    if not positives or not negatives:
        raise ConfigurationError("pool must contain both classes")
    half = max(1, seed_size // 2)
    chosen_pos = rng.choice(len(positives), size=min(half, len(positives)), replace=False)
    chosen_neg = rng.choice(len(negatives), size=min(half, len(negatives)), replace=False)
    return [positives[int(i)] for i in chosen_pos] + [
        negatives[int(i)] for i in chosen_neg
    ]


def run_active_learning(
    matcher: Matcher,
    dataset: Dataset,
    pool: PairSet,
    evaluation: PairSet,
    budgets: list[int],
    strategy: str = "uncertainty",
    seed_size: int = 10,
    rng: np.random.Generator | None = None,
) -> ActiveLearningCurve:
    """Simulate a labelling campaign and return the learning curve.

    Parameters
    ----------
    matcher:
        A supervised matcher; re-fitted at every budget checkpoint.
    pool:
        The unlabelled pool the annotator draws from (ground-truth labels
        are revealed as pairs are selected).
    evaluation:
        Held-out pairs scored at every checkpoint.
    budgets:
        Increasing label counts at which to record F1 (including the seed).
    strategy:
        ``"uncertainty"`` (closest to the decision threshold first) or
        ``"random"`` (the baseline).
    """
    if strategy not in ("uncertainty", "random"):
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    if sorted(budgets) != list(budgets) or not budgets:
        raise ConfigurationError("budgets must be a non-empty increasing list")
    if budgets[0] < seed_size:
        raise ConfigurationError("first budget must cover the seed pool")
    rng = rng if rng is not None else np.random.default_rng(0)
    matcher.prepare(dataset)
    labelled = _seed_pool(pool.labels(), seed_size, rng)
    labelled_set = set(labelled)
    f1_scores: list[float] = []
    for budget in budgets:
        while len(labelled) < min(budget, len(pool)):
            unlabelled = [i for i in range(len(pool)) if i not in labelled_set]
            if not unlabelled:
                break
            if strategy == "random":
                pick = unlabelled[int(rng.integers(len(unlabelled)))]
            else:
                matcher.fit(dataset, pool.select(labelled))
                scores = matcher.score_pairs(dataset, pool.select(unlabelled))
                # Most uncertain = closest to the decision threshold; take a
                # small batch per refit to keep the simulation tractable.
                order = np.argsort(np.abs(scores - matcher.threshold))
                batch = min(10, min(budget, len(pool)) - len(labelled))
                for position in order[:batch]:
                    pick = unlabelled[int(position)]
                    labelled.append(pick)
                    labelled_set.add(pick)
                continue
            labelled.append(pick)
            labelled_set.add(pick)
        matcher.fit(dataset, pool.select(labelled))
        scores = matcher.score_pairs(dataset, evaluation)
        quality: MatchQuality = evaluate_scores(
            scores, evaluation.labels(), matcher.threshold
        )
        f1_scores.append(quality.f1)
    return ActiveLearningCurve(
        strategy=strategy,
        budgets=tuple(budgets),
        f1_scores=tuple(f1_scores),
    )

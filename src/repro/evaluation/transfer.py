"""Transfer learning: train on one product domain, test on another.

Section V announces "we ... study the use of transfer learning" (the
detailed protocol lives in the paper's extended arXiv version): a matcher
trained on the property pairs of one domain is applied unchanged to a
different domain.  This works in LEAPME's favour because its features are
domain-independent *shapes* (embedding differences, string distances),
not domain vocabularies -- provided the embedding space covers both
domains, as a single pre-trained GloVe does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import Matcher
from repro.data.model import Dataset
from repro.data.pairs import sample_training_pairs
from repro.evaluation.metrics import MatchQuality, evaluate_scores
from repro.evaluation.runner import blocked_test_quality


@dataclass(frozen=True)
class TransferResult:
    """Quality of a source-domain-trained matcher on a target domain."""

    source_dataset: str
    target_dataset: str
    matcher_name: str
    quality: MatchQuality

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.matcher_name}: {self.source_dataset} -> {self.target_dataset}: "
            f"P={self.quality.precision:.2f} R={self.quality.recall:.2f} "
            f"F1={self.quality.f1:.2f}"
        )


def run_transfer_experiment(
    matcher: Matcher,
    source: Dataset,
    target: Dataset,
    negative_ratio: float = 2.0,
    seed: int = 0,
) -> TransferResult:
    """Train on all of ``source``, evaluate on all pairs of ``target``.

    The matcher must share one embedding space across both domains (build
    it with ``build_domain_embeddings([source, target])``).  Both sets are
    its ``candidates``; the target's pruned true matches count as misses.
    """
    rng = np.random.default_rng([seed, 2207])
    if matcher.is_supervised:
        matcher.prepare(source)
        candidates = matcher.candidates(source)
        training = sample_training_pairs(candidates, negative_ratio, rng)
        matcher.fit(source, training)
    matcher.prepare(target)
    test = matcher.candidates(target)
    scores = matcher.score_pairs(target, test)
    quality = blocked_test_quality(
        evaluate_scores(scores, test.labels(), matcher.threshold), test.universe, []
    )
    return TransferResult(
        source_dataset=source.name,
        target_dataset=target.name,
        matcher_name=matcher.name,
        quality=quality,
    )

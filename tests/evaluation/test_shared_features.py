"""A matcher prepared before ``evaluate_matcher`` keeps its own store.

``evaluate_matcher`` is a one-cell grid, and the grid shares one
null-policy store per dataset among its matchers.  A matcher whose own
store already serves the dataset must keep that store -- with its own
candidate policy -- and the grid must build no store for it.
"""

from repro.blocking import CandidatePolicy
from repro.core import LeapmeConfig, LeapmeMatcher, PairFeatureStore
from repro.evaluation import RunSettings, evaluate_matcher
from repro.nn.schedule import TrainingSchedule

LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3))


def test_prepared_blocked_matcher_keeps_its_store(
    tiny_headphones, tiny_embeddings, monkeypatch
):
    matcher = LeapmeMatcher(
        tiny_embeddings,
        config=LIGHT,
        candidate_policy=CandidatePolicy.from_label("minhash"),
    )
    matcher.prepare(tiny_headphones)
    store = matcher.store
    assert len(matcher.candidates(tiny_headphones)) == 343
    builds = []
    init = PairFeatureStore.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairFeatureStore, "__init__", counted)
    result = evaluate_matcher(
        matcher,
        tiny_headphones,
        RunSettings(train_fraction=0.5, repetitions=2, seed=4),
    )
    assert len(result.qualities) + result.skipped_repetitions == 2
    assert matcher.store is store
    assert builds == []
    assert len(matcher.candidates(tiny_headphones)) == 343

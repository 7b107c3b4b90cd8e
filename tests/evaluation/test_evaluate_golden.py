"""Golden cells: ``evaluate_matcher``'s journal bytes and qualities.

One cell per system on tiny headphones (fraction 0.5, three
repetitions, seed 4) is pinned by the sha256 of its journal file and by
each repetition's TP/FP/FN.  Any change to the repetition loop, the
split and sample draws, the feature store or a matcher's scores that
moves a single journal byte fails here.  A run killed mid-cell and
resumed must leave the journal an uninterrupted run writes.

The LEAPME cell trains a light network, so its counts are pinned for
one floating-point environment; the other systems are exact.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    AmlMatcher,
    FcaMapMatcher,
    LshMatcher,
    NezhadiMatcher,
    SemPropMatcher,
)
from repro.core import LeapmeConfig, LeapmeMatcher
from repro.core.api import Matcher
from repro.evaluation import RunJournal, RunSettings, evaluate_matcher
from repro.nn.schedule import TrainingSchedule
from repro.testing import FaultPlan, FaultyMatcher, SimulatedKill
from repro.text.normalize import token_set

SETTINGS = RunSettings(train_fraction=0.5, repetitions=3, seed=4)

LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(2, 1e-3))


class NameEqMatcher(Matcher):
    """Cheap deterministic supervised matcher: token-set name equality."""

    name = "NameEq"
    is_supervised = True

    def fit(self, dataset, training_pairs):
        pass

    def score_pairs(self, dataset, pairs):
        return np.array(
            [
                1.0 if token_set(p.left.name) == token_set(p.right.name) else 0.0
                for p in pairs
            ]
        )


SYSTEMS = {
    "NameEq": lambda embeddings: NameEqMatcher(),
    "LEAPME": lambda embeddings: LeapmeMatcher(embeddings, config=LIGHT),
    "Nezhadi": lambda embeddings: NezhadiMatcher(),
    "AML": lambda embeddings: AmlMatcher(),
    "FCA-Map": lambda embeddings: FcaMapMatcher(),
    "SemProp": lambda embeddings: SemPropMatcher(embeddings),
    "LSH": lambda embeddings: LshMatcher(),
}

#: system -> (journal sha256, per-repetition (tp, fp, fn)).
GOLDEN = {
    "NameEq": (
        "ef0831f785b2abb6d5fc85bfdd85994875573a2c0d83b69e0da46e23b3d64891",
        [(14, 0, 47), (14, 0, 49), (14, 0, 47)],
    ),
    "LEAPME": (
        "e0373cf6f0ae777b7e46a0c5be5b66389487f2060da9db0e0b6af782a3ba9331",
        [(52, 1103, 9), (54, 956, 9), (54, 944, 7)],
    ),
    "Nezhadi": (
        "64a21e14a29c34180defe4603c3b41ffdcc863486aad0396b49c7e026747e4d7",
        [(44, 284, 17), (16, 431, 47), (33, 144, 28)],
    ),
    "AML": (
        "c9e6d23e82543a34f578d9b43042f03dafe55d07da154546365735d87c806e9b",
        [(15, 1, 46), (15, 1, 48), (15, 1, 46)],
    ),
    "FCA-Map": (
        "879c468fb4c94f305311885a60356035c115d2c30e3bdeadab3b853775e9c2f7",
        [(14, 0, 47), (14, 0, 49), (14, 0, 47)],
    ),
    "SemProp": (
        "ee1fae0cfde7759d3f540f293d2c4fbe98d8177b2fee013ae51b803b06c44943",
        [(61, 73, 0), (63, 73, 0), (61, 76, 0)],
    ),
    "LSH": (
        "552b9b49abae2438055f9846e1d95af059275edd6dc447de6a71ac7172a004de",
        [(17, 16, 44), (17, 17, 46), (17, 16, 44)],
    ),
}


def _run(matcher, dataset, journal, label=None):
    return evaluate_matcher(matcher, dataset, SETTINGS, journal=journal, label=label)


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_journal_bytes_and_qualities_are_pinned(
    system, tiny_headphones, tiny_embeddings, tmp_path
):
    journal = RunJournal(tmp_path / "run.jsonl")
    result = _run(SYSTEMS[system](tiny_embeddings), tiny_headphones, journal)
    digest = hashlib.sha256(journal.path.read_bytes()).hexdigest()
    counts = [
        (q.true_positives, q.false_positives, q.false_negatives)
        for q in result.qualities
    ]
    assert (digest, counts) == GOLDEN[system]
    assert result.skipped_repetitions == 0


def test_killed_cell_resumes_to_the_uninterrupted_journal(tiny_headphones, tmp_path):
    clean = RunJournal(tmp_path / "clean.jsonl")
    uninterrupted = _run(
        FaultyMatcher(NameEqMatcher(), FaultPlan()), tiny_headphones, clean, "cell"
    )

    journal = RunJournal(tmp_path / "killed.jsonl")
    with pytest.raises(SimulatedKill):
        _run(
            FaultyMatcher(NameEqMatcher(), FaultPlan.kill_at(2)),
            tiny_headphones,
            journal,
            "cell",
        )
    (key,) = journal.keys()
    assert set(journal.entries(key)) == {0, 1}

    survivor = FaultyMatcher(NameEqMatcher(), FaultPlan())
    resumed = _run(survivor, tiny_headphones, journal, "cell")
    assert survivor.executed_repetitions == {2}
    assert resumed.resumed_repetitions == 2
    assert resumed.qualities == uninterrupted.qualities
    assert journal.path.read_bytes() == clean.path.read_bytes()

"""Golden cells: ``evaluate_matcher``'s journal bytes and qualities.

One cell per system on tiny headphones, and one per baseline on tiny
cameras, phones and tvs (fraction 0.5, three repetitions, seed 4), is
pinned by the sha256 of its journal file and by each repetition's
TP/FP/FN.  Any change to the repetition loop, the
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
from repro.datasets import build_domain_embeddings, load_dataset
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


#: (domain, baseline) -> (journal sha256, per-repetition (tp, fp, fn)).
DOMAIN_GOLDEN = {
    ("cameras", "Nezhadi"): (
        "57ece8d982071df1b3ae9f2a7906258645b0a59b958c6c36bde19e8d79806c87",
        [(60, 189, 19), (49, 113, 30), (57, 212, 22)],
    ),
    ("cameras", "AML"): (
        "5ef6313eebc8ae09ac8c67cf7f8f93f9a13e9ba49d76cd94f5d4b2bb905f7fde",
        [(33, 0, 46), (34, 0, 45), (32, 0, 47)],
    ),
    ("cameras", "FCA-Map"): (
        "aa9564d83dae15abe4d81cd97939571ebadf54a3c9dab273c729ae2f92cabd59",
        [(29, 0, 50), (30, 0, 49), (29, 0, 50)],
    ),
    ("cameras", "SemProp"): (
        "3728cbc1a050e98fb2bf1c131b5bcfe57e08803ca9fa448251564fb2bdef963a",
        [(79, 82, 0), (79, 86, 0), (79, 89, 0)],
    ),
    ("cameras", "LSH"): (
        "264d42407923362fd0735d8da2e72549e796e93a8166337d59124673b4f93aad",
        [(54, 10, 25), (54, 10, 25), (55, 10, 24)],
    ),
    ("phones", "Nezhadi"): (
        "d3a080ef2b14414354161dd70ca92fa4cad3372e1860cbdde721d6fa26008aa9",
        [(25, 224, 29), (23, 34, 29), (26, 112, 26)],
    ),
    ("phones", "AML"): (
        "2d298f69b2066d39471e7f4f1c52280ce0a13b60e0f8721322da4a7bed940eb2",
        [(19, 0, 35), (18, 0, 34), (19, 0, 33)],
    ),
    ("phones", "FCA-Map"): (
        "88e872a4494783675b96b0574c548d0689b49f84de7886b1b8f53690d2185233",
        [(16, 0, 38), (15, 0, 37), (17, 0, 35)],
    ),
    ("phones", "SemProp"): (
        "fc732410ead9c3a3c262518d0656560b93727a879a2bf58c7dbf9b7f123bf3c2",
        [(54, 97, 0), (52, 95, 0), (52, 91, 0)],
    ),
    ("phones", "LSH"): (
        "16665bf31a5640c11bda9601a55ed0cb85b6f04df3444cfa70cb63fd0f599261",
        [(12, 2, 42), (12, 2, 40), (13, 2, 39)],
    ),
    ("tvs", "Nezhadi"): (
        "2b35eb745df86e09b4c0d34f594c46ab8b075743f2a10371916e817c756616e2",
        [(35, 94, 25), (49, 195, 13), (27, 139, 38)],
    ),
    ("tvs", "AML"): (
        "f65740e5f46d2b0b46d3422fcffcccd8eaddd42ae4e0f8aeb36ddff6eee2d53a",
        [(23, 2, 37), (24, 3, 38), (23, 2, 42)],
    ),
    ("tvs", "FCA-Map"): (
        "4c5f67d45c38dc73027918975761175548a91f0cba4fe1aed4012eae685f467c",
        [(20, 0, 40), (21, 0, 41), (20, 0, 45)],
    ),
    ("tvs", "SemProp"): (
        "7216f157457d350eea5b8f5eae1dd0eee8370034cfcabe4353c0a3cf130bb57b",
        [(60, 108, 0), (62, 111, 0), (65, 109, 0)],
    ),
    ("tvs", "LSH"): (
        "87ec66726b26ca955277c98e51d669ce1583b288d30a6b97201aa35a2ae791a0",
        [(14, 1, 46), (16, 1, 46), (15, 1, 50)],
    ),
}


def _run(matcher, dataset, journal, label=None):
    return evaluate_matcher(matcher, dataset, SETTINGS, journal=journal, label=label)


def _pinned(result, journal):
    digest = hashlib.sha256(journal.path.read_bytes()).hexdigest()
    counts = [
        (q.true_positives, q.false_positives, q.false_negatives)
        for q in result.qualities
    ]
    return digest, counts


@pytest.fixture(scope="module")
def domains():
    """Tiny dataset and embeddings of each of the other domains, built once."""
    return {
        name: (
            load_dataset(name, scale="tiny", seed=0),
            build_domain_embeddings(name, scale="tiny"),
        )
        for name in ("cameras", "phones", "tvs")
    }


@pytest.mark.parametrize("system", list(SYSTEMS))
def test_journal_bytes_and_qualities_are_pinned(
    system, tiny_headphones, tiny_embeddings, tmp_path
):
    journal = RunJournal(tmp_path / "run.jsonl")
    result = _run(SYSTEMS[system](tiny_embeddings), tiny_headphones, journal)
    assert _pinned(result, journal) == GOLDEN[system]
    assert result.skipped_repetitions == 0


@pytest.mark.parametrize(("domain", "system"), list(DOMAIN_GOLDEN))
def test_baseline_cells_are_pinned_on_every_domain(domain, system, domains, tmp_path):
    dataset, embeddings = domains[domain]
    journal = RunJournal(tmp_path / "run.jsonl")
    result = _run(SYSTEMS[system](embeddings), dataset, journal)
    assert _pinned(result, journal) == DOMAIN_GOLDEN[(domain, system)]
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

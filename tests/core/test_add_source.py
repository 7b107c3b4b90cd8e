"""One add-source path: every caller reports the same new pairs.

``Matcher.with_source`` is the only way a live matcher grows by a
source.  The service's reload (journaled ``pairs``), a follow batch
(``len(batch.pairs)``) and ``repro match --add-source`` ("new candidate
pairs") all go through it, so for one base and one addition they must
agree -- and the matcher they grew from must not change.
"""

import re

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.cli import main
from repro.data.csvio import save_dataset_csv
from repro.data.pairs import sample_training_pairs
from repro.errors import DataError
from repro.ingest import IngestPipeline, source_fingerprint
from repro.ingest.watcher import alignment_sidecar
from repro.serve import RegistryJournal, TenantRegistry, TenantSpec
from repro.systems import build_system_matcher, fallback_embeddings

from tests.conftest import full_matrix

#: (system, blocking, sources in the addition).  LSH adds two sources,
#: so pairs between the two new sources count as new too.
CASES = [("leapme", None, 1), ("leapme", "minhash", 1), ("lsh", None, 2)]


@pytest.fixture(scope="module", params=CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def case(request, tiny_headphones, tmp_path_factory):
    """Base and addition CSVs, and a matcher fitted on the base."""
    system, blocking, added = request.param
    directory = tmp_path_factory.mktemp(f"{system}-{blocking}")
    sources = tiny_headphones.sources()
    base = tiny_headphones.restrict_to_sources(sources[:-added])
    addition = tiny_headphones.restrict_to_sources(sources[-added:])
    base_csv = directory / "base.csv"
    save_dataset_csv(base, base_csv, directory / "base.alignment.csv")
    addition_csv = directory / "late.csv"
    save_dataset_csv(addition, addition_csv, directory / "late.alignment.csv")
    spec = TenantSpec(
        tenant="t1",
        system=system,
        instances=str(base_csv),
        alignment=str(directory / "base.alignment.csv"),
        blocking=blocking,
    )
    return spec, base, addition, addition_csv


def fitted_matcher(spec, base):
    """The matcher a tenant over ``spec`` bootstraps to."""
    matcher = build_system_matcher(
        spec.system, fallback_embeddings(base), CandidatePolicy.from_label(spec.blocking)
    )
    matcher.prepare(base)
    if matcher.is_supervised:
        training = sample_training_pairs(
            matcher.candidates(base), rng=np.random.default_rng(spec.seed)
        )
        matcher.fit(base, training)
    return matcher


def keys(pairs):
    return [pair.key for pair in pairs]


def test_with_source_leaves_the_old_matcher_untouched(case):
    spec, base, addition, _ = case
    matcher = fitted_matcher(spec, base)
    candidates = matcher.candidates(base)
    scores = matcher.score_pairs(base, candidates)
    store = getattr(matcher, "store", None)
    matrix = None if store is None else full_matrix(store).tobytes()

    successor, merged, new_pairs = matcher.with_source(base, addition)

    assert successor is not matcher
    assert set(merged.sources()) == set(base.sources()) | set(addition.sources())
    assert getattr(matcher, "store", None) is store
    if store is not None:
        assert store.serves(base)
        assert full_matrix(store).tobytes() == matrix
        assert successor.store is not store
        assert successor.store.serves(merged)
    assert keys(matcher.candidates(base)) == keys(candidates)
    np.testing.assert_array_equal(matcher.score_pairs(base, candidates), scores)
    # The new pairs are exactly what the merged candidates add.
    before = set(keys(candidates))
    after = set(keys(successor.candidates(merged)))
    assert set(keys(new_pairs)) == after - before
    assert len(set(keys(new_pairs))) == len(new_pairs)
    if spec.blocking is not None:
        # Under blocking the addition can pull base-base pairs into the
        # universe: a subset by source would miss them.
        old_sources = set(base.sources())
        assert any(
            pair.left.source in old_sources and pair.right.source in old_sources
            for pair in new_pairs
        )


def test_repeated_source_raises_before_any_work(case):
    spec, base, addition, _ = case
    matcher = fitted_matcher(spec, base)
    _, merged, _ = matcher.with_source(base, addition)
    with pytest.raises(DataError, match="already present"):
        matcher.with_source(merged, addition)


def test_every_caller_reports_the_same_new_pairs(case, tmp_path, capsys):
    spec, base, addition, addition_csv = case
    _, _, new_pairs = fitted_matcher(spec, base).with_source(base, addition)
    expected = len(new_pairs)
    assert expected > 0

    registry = TenantRegistry(RegistryJournal(tmp_path / "registry.journal"))
    registry.create(spec)
    assert registry.add_source("t1", addition_csv)["pairs"] == expected
    assert registry.journal.latest()["t1"].pairs == expected

    pipeline = IngestPipeline(
        fitted_matcher(spec, base), tmp_path / "m.csv", tmp_path / "c.json"
    )
    pipeline.bootstrap(base)
    batch = pipeline.featurize(
        addition_csv, alignment_sidecar(addition_csv), source_fingerprint(addition_csv)
    )
    assert len(batch.pairs) == expected
    assert keys(batch.pairs) == keys(new_pairs)

    argv = [
        "match",
        "--system", spec.system,
        "--instances", spec.instances,
        "--alignment", spec.alignment,
        "--add-source", str(addition_csv),
        "--add-alignment", str(alignment_sidecar(addition_csv)),
        "--out", str(tmp_path / "matches.csv"),
        "--seed", str(spec.seed),
    ]
    if spec.blocking is not None:
        argv += ["--blocking", spec.blocking]
    assert main(argv) == 0
    reported = re.search(r"(\d+) new candidate pairs", capsys.readouterr().out)
    assert int(reported.group(1)) == expected

"""IngestPipeline: deterministic fusion, bootstrap modes, output formats."""

import json

import pytest

from repro.baselines import LshMatcher, NezhadiMatcher
from repro.data.csvio import save_dataset_csv
from repro.errors import ConfigurationError, DataError
from repro.ingest import IngestPipeline, cold_rebuild, source_fingerprint
from repro.ingest.watcher import alignment_sidecar

from tests.conftest import full_matrix
from tests.ingest.conftest import (
    PROPS_A,
    PROPS_B,
    PROPS_C,
    fast_leapme,
    write_source,
)


def ingest_file(pipeline, path):
    batch = pipeline.featurize(
        path, alignment_sidecar(path), source_fingerprint(path)
    )
    return batch, pipeline.fuse(batch)


class TestUnsupervisedStreaming:
    def test_two_batches_build_matches_and_clusters(self, feed, tmp_path):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        pipeline = IngestPipeline(
            LshMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        pipeline.bootstrap(None)
        batch_a, counts_a = ingest_file(pipeline, a)
        assert counts_a == {"order": 1, "matches": 0, "joined": 0, "founded": 2}
        batch_b, counts_b = ingest_file(pipeline, b)
        assert counts_b["order"] == 2
        assert counts_b["joined"] == 2
        header, *rows = (tmp_path / "m.csv").read_text().splitlines()
        assert header == "left_source,left_property,right_source,right_property,score"
        assert len(rows) == counts_b["matches"]
        clusters = json.loads((tmp_path / "c.json").read_text())
        assert ["srcA|color", "srcB|colour"] in clusters["clusters"]
        assert clusters["sources"] == ["srcA", "srcB"]

    def test_streaming_equals_cold_rebuild_byte_for_byte(self, feed, tmp_path):
        files = [
            write_source(feed, "a.csv", "srcA", PROPS_A),
            write_source(feed, "b.csv", "srcB", PROPS_B),
            write_source(feed, "c.csv", "srcC", PROPS_C),
        ]
        pipeline = IngestPipeline(
            LshMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        pipeline.bootstrap(None)
        for path in files:
            ingest_file(pipeline, path)
        cold_rebuild(LshMatcher(), files, tmp_path / "m2.csv", tmp_path / "c2.json")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


class TestBootstrapModes:
    def test_supervised_without_bootstrap_is_rejected(self, tmp_path):
        pipeline = IngestPipeline(
            NezhadiMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        with pytest.raises(ConfigurationError, match="supervised"):
            pipeline.bootstrap(None)

    def test_unfitted_supervised_matcher_cannot_featurize(self, feed, tmp_path):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        pipeline = IngestPipeline(
            NezhadiMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        # Deliberately skip bootstrap: the first (pairless) batch is
        # fine, the first batch with pairs must fail loudly.
        batch, _ = ingest_file(pipeline, a)
        assert len(batch.pairs) == 0
        with pytest.raises(ConfigurationError, match="not fitted"):
            pipeline.featurize(b, None, source_fingerprint(b))

    def test_leapme_streams_through_the_store_delta_path(
        self, tiny_headphones, tiny_embeddings, feed, tmp_path
    ):
        sources = tiny_headphones.sources()
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        streamed = tiny_headphones.restrict_to_sources([sources[-1]])
        path = feed / "late.csv"
        save_dataset_csv(streamed, path, feed / "late.alignment.csv")
        matcher = fast_leapme(tiny_embeddings)
        pipeline = IngestPipeline(
            matcher, tmp_path / "m.csv", tmp_path / "c.json", seed=3
        )
        pipeline.bootstrap(base)
        assert matcher.is_fitted
        assert matcher.store is not None
        batch, counts = ingest_file(pipeline, path)
        # Only cross pairs (new source x base) are featurized/scored.
        base_properties = len(base.properties())
        assert len(batch.pairs) == base_properties * len(streamed.properties())
        assert counts["joined"] + counts["founded"] == len(streamed.properties())
        # Copy-on-swap: the pipeline now scores with the grown successor.
        matcher = pipeline.matcher
        assert set(matcher.store.universe.dataset.sources()) == set(sources)

    def test_leapme_resume_replay_is_byte_identical(
        self, tiny_headphones, tiny_embeddings, feed, tmp_path
    ):
        sources = tiny_headphones.sources()
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        streamed = tiny_headphones.restrict_to_sources([sources[-1]])
        path = feed / "late.csv"
        save_dataset_csv(streamed, path, feed / "late.alignment.csv")

        def run(out_dir):
            out_dir.mkdir()
            pipeline = IngestPipeline(
                fast_leapme(tiny_embeddings),
                out_dir / "m.csv",
                out_dir / "c.json",
                seed=3,
            )
            pipeline.bootstrap(base)
            ingest_file(pipeline, path)

        run(tmp_path / "one")
        run(tmp_path / "two")
        assert (tmp_path / "one/m.csv").read_bytes() == (
            tmp_path / "two/m.csv"
        ).read_bytes()
        assert (tmp_path / "one/c.json").read_bytes() == (
            tmp_path / "two/c.json"
        ).read_bytes()

    def test_blocked_leapme_streams_the_pruned_universe(
        self, tiny_headphones, tiny_embeddings, feed, tmp_path
    ):
        """Blocked streaming trains and scores the pruned candidate set.

        The streamed delta must enumerate the same candidates a cold
        blocked rebuild of the merged dataset would, and replaying the
        whole run must be byte-identical (the blocked analogue of the
        resume-replay contract above).
        """
        from repro.core import PairFeatureStore

        sources = tiny_headphones.sources()
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        streamed = tiny_headphones.restrict_to_sources([sources[-1]])
        path = feed / "late.csv"
        save_dataset_csv(streamed, path, feed / "late.alignment.csv")

        def run(out_dir):
            out_dir.mkdir()
            matcher = fast_leapme(tiny_embeddings, blocking="minhash")
            pipeline = IngestPipeline(
                matcher, out_dir / "m.csv", out_dir / "c.json", seed=3
            )
            pipeline.bootstrap(base)
            ingest_file(pipeline, path)
            return pipeline.matcher

        matcher = run(tmp_path / "one")
        universe = matcher.store.universe
        assert universe.is_blocked
        assert universe.policy.label == "minhash"
        cold = PairFeatureStore.build(
            tiny_headphones, tiny_embeddings, policy=universe.policy
        )
        assert [p.key for p in universe.pairs] == [
            p.key for p in cold.universe.pairs
        ]
        assert full_matrix(matcher.store).tobytes() == full_matrix(cold).tobytes()

        run(tmp_path / "two")
        assert (tmp_path / "one/m.csv").read_bytes() == (
            tmp_path / "two/m.csv"
        ).read_bytes()
        assert (tmp_path / "one/c.json").read_bytes() == (
            tmp_path / "two/c.json"
        ).read_bytes()


class TestFailureSurface:
    def test_duplicate_source_raises_before_any_state_change(
        self, feed, tmp_path
    ):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        duplicate = write_source(feed, "dup.csv", "srcA", PROPS_B)
        pipeline = IngestPipeline(
            LshMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        pipeline.bootstrap(None)
        ingest_file(pipeline, a)
        with pytest.raises(DataError, match="already present"):
            pipeline.featurize(duplicate, None, source_fingerprint(duplicate))
        assert pipeline.clusterer.integrated_sources == ["srcA"]

    def test_empty_source_file_raises(self, feed, tmp_path):
        empty = feed / "empty.csv"
        empty.write_text("")
        pipeline = IngestPipeline(
            LshMatcher(), tmp_path / "m.csv", tmp_path / "c.json"
        )
        pipeline.bootstrap(None)
        with pytest.raises(DataError):
            pipeline.featurize(empty, None, "f0")

"""FollowDaemon: admit, retry, quarantine, drain, resume."""

import pytest

from repro.baselines import LshMatcher
from repro.data.csvio import save_dataset_csv
from repro.errors import DataError, IngestInterrupted, TransientDataError
from repro.ingest import (
    REASON_DUPLICATE,
    REASON_POISON,
    REASON_RETRIES_EXHAUSTED,
    STATUS_ADMITTED,
    STATUS_FEATURIZED,
    STATUS_FUSED,
    STATUS_RETRYING,
    IngestJournal,
    cold_rebuild,
)
from repro.testing import write_poison_csv

from tests.ingest.conftest import (
    PROPS_A,
    PROPS_B,
    fast_leapme,
    make_daemon,
    source_csv_text,
    write_source,
)


def output_bytes(out_dir):
    return (
        (out_dir / "matches.csv").read_bytes(),
        (out_dir / "clusters.json").read_bytes(),
    )


class TestHappyPath:
    def test_two_sources_fuse_and_match_cold_rebuild(self, feed, tmp_path):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        out = tmp_path / "out"
        out.mkdir()
        daemon = make_daemon(feed, out)
        summary = daemon.run(max_batches=2)
        assert summary["fused"] == 2
        assert summary["quarantined"] == 0
        latest = daemon.journal.latest()
        assert {event.status for event in latest.values()} == {STATUS_FUSED}

        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), [a, b], cold / "matches.csv", cold / "clusters.json")
        assert output_bytes(out) == output_bytes(cold)

    def test_idle_bound_exits_on_empty_feed(self, feed, tmp_path):
        daemon = make_daemon(feed, tmp_path)
        summary = daemon.run(max_idle_polls=3)
        assert summary["fused"] == 0
        assert summary["polls"] >= 3

    def test_outputs_inside_feed_are_not_reingested(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, feed)  # outputs land in the feed itself
        summary = daemon.run(max_batches=1)
        assert summary["fused"] == 1
        # matches.csv now exists inside the followed directory; another
        # bounded run must not admit it (or the freshly fused source).
        assert daemon.run(max_idle_polls=3)["fused"] == 0


class TestRetryAndQuarantine:
    def test_transient_failure_retries_then_fuses(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path, max_retries=2)
        real_featurize = daemon.pipeline.featurize
        failures = []

        def flaky(path, alignment_path, fingerprint):
            if not failures:
                failures.append(1)
                raise TransientDataError("simulated read hiccup")
            return real_featurize(path, alignment_path, fingerprint)

        daemon.pipeline.featurize = flaky
        summary = daemon.run(max_batches=1)
        assert summary["fused"] == 1
        statuses = [event.status for event in daemon.journal.events()]
        assert STATUS_RETRYING in statuses  # the failure is history, on record
        assert statuses[-1] == STATUS_FUSED

    def test_exhausted_transient_budget_quarantines(self, feed, tmp_path):
        (feed / "empty.csv").write_text("")  # zero bytes: TransientDataError
        daemon = make_daemon(feed, tmp_path, max_retries=1)
        summary = daemon.run(max_idle_polls=3)
        assert summary == {
            "replayed": 0,
            "fused": 0,
            "quarantined": 1,
            "polls": summary["polls"],
        }
        [event] = daemon.journal.quarantined().values()
        assert event.reason == REASON_RETRIES_EXHAUSTED
        assert event.attempt == 2
        assert event.error_type == "TransientDataError"

    def test_quarantined_file_heals_under_new_fingerprint(self, feed, tmp_path):
        path = feed / "late.csv"
        path.write_text("")
        daemon = make_daemon(feed, tmp_path, max_retries=0)
        assert daemon.run(max_idle_polls=3)["quarantined"] == 1
        # The writer finally lands the real content: same file name, new
        # fingerprint, so it is a *new* source key -- the old quarantine
        # stands but no longer applies.
        path.write_text(source_csv_text("srcA", PROPS_A))
        assert daemon.run(max_batches=1)["fused"] == 1

    def test_poison_source_never_stalls_healthy_ones(self, feed, tmp_path):
        write_poison_csv(feed / "bad.csv")
        write_source(feed, "good.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path, max_retries=1)
        summary = daemon.run(max_idle_polls=3)
        assert summary["fused"] == 1
        assert summary["quarantined"] == 1
        [event] = daemon.journal.quarantined().values()
        assert event.file == "bad.csv"
        assert event.reason == REASON_POISON
        assert event.attempt == 2  # poison burns the whole retry budget
        assert daemon.journal.latest()[
            ("good.csv", daemon.journal.fused_in_order()[0].fingerprint)
        ].status == STATUS_FUSED

    def test_duplicate_source_is_quarantined_without_retries(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path, max_retries=2)
        daemon.run(max_batches=1)
        write_source(feed, "again.csv", "srcA", PROPS_B)
        summary = daemon.run(max_idle_polls=3)
        assert summary["quarantined"] == 1
        [event] = daemon.journal.quarantined().values()
        assert event.file == "again.csv"
        assert event.reason == REASON_DUPLICATE
        assert event.attempt == 1  # no budget burned on an unhealable drop


def fail_first(real, failures, when=lambda *args: True):
    """``real``, except that its first call matching ``when`` raises OSError."""

    def flaky(*args):
        if not failures and when(*args):
            failures.append(args)
            raise OSError("simulated disk failure")
        return real(*args)

    return flaky


class TestRetryAfterPartialBatch:
    """A batch that failed part-way is redone, never taken for a duplicate.

    Featurize grows a successor matcher and fuse adopts the successor
    state only after both outputs are written, so an ``OSError`` after
    featurize -- or between the two output writes, which leaves a
    half-written pair of files -- leaves the pipeline as it was, and
    the retry fuses the file exactly once.
    """

    @pytest.fixture()
    def late_source(self, tiny_headphones, feed):
        """Headphones/tiny minus its last source, and that source as a file."""
        sources = tiny_headphones.sources()
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        streamed = tiny_headphones.restrict_to_sources(sources[-1:])
        path = feed / "late.csv"
        save_dataset_csv(streamed, path, feed / "late.alignment.csv")
        return base, path

    def run_leapme(self, late_source, embeddings, tmp_path, patch):
        base, path = late_source
        out = tmp_path / "out"
        out.mkdir()
        daemon = make_daemon(
            path.parent, out, matcher=fast_leapme(embeddings), base=base, seed=3
        )
        failures = patch(daemon)
        summary = daemon.run(max_batches=1, max_idle_polls=20)
        assert len(failures) == 1
        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(
            fast_leapme(embeddings),
            [path],
            cold / "matches.csv",
            cold / "clusters.json",
            base=base,
            seed=3,
        )
        self.assert_fused_once_like(summary, daemon, out, cold)

    @staticmethod
    def assert_fused_once_like(summary, daemon, out, cold):
        assert summary["fused"] == 1
        assert summary["quarantined"] == 0
        assert daemon.journal.quarantined() == {}
        assert output_bytes(out) == output_bytes(cold)

    @staticmethod
    def fail_featurized_append(daemon):
        failures = []
        daemon.journal.append = fail_first(
            daemon.journal.append,
            failures,
            when=lambda event: event.status == STATUS_FEATURIZED,
        )
        return failures

    @staticmethod
    def fail_clusters_write(monkeypatch):
        # The matches CSV is rewritten first, so failing the clusters
        # JSON write leaves a half-written pair of outputs behind.
        import repro.ingest.pipeline as pipeline_module

        failures = []
        monkeypatch.setattr(
            pipeline_module,
            "atomic_write_text",
            fail_first(pipeline_module.atomic_write_text, failures),
        )
        return failures

    def test_featurized_append_failure_retries_leapme(
        self, late_source, tiny_embeddings, tmp_path
    ):
        self.run_leapme(
            late_source, tiny_embeddings, tmp_path, self.fail_featurized_append
        )

    def test_outputs_write_failure_retries_leapme(
        self, late_source, tiny_embeddings, tmp_path, monkeypatch
    ):
        self.run_leapme(
            late_source,
            tiny_embeddings,
            tmp_path,
            lambda daemon: self.fail_clusters_write(monkeypatch),
        )

    def test_outputs_write_failure_retries_lsh(self, feed, tmp_path, monkeypatch):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        write_source(feed, "b.csv", "srcB", PROPS_B)
        out = tmp_path / "out"
        out.mkdir()
        daemon = make_daemon(feed, out)
        failures = self.fail_clusters_write(monkeypatch)
        summary = daemon.run(max_batches=2, max_idle_polls=20)
        assert len(failures) == 1
        assert summary["fused"] == 2
        assert summary["quarantined"] == 0
        # a.csv failed and was retried, so b.csv may have fused first.
        order = [feed / event.file for event in daemon.journal.fused_in_order()]
        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), order, cold / "matches.csv", cold / "clusters.json")
        assert output_bytes(out) == output_bytes(cold)


class TestStop:
    def test_preset_stop_event_raises_before_any_work(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path)
        daemon.stop_event.set()
        with pytest.raises(IngestInterrupted) as excinfo:
            daemon.run()
        assert excinfo.value.signum is None
        assert daemon.journal.events() == []

    def test_stop_drains_the_in_flight_batch(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        write_source(feed, "b.csv", "srcB", PROPS_B)
        daemon = make_daemon(feed, tmp_path)
        real_append = daemon.journal.append

        def record_then_stop(event):
            real_append(event)
            if event.status == STATUS_FUSED:
                daemon.stop_event.set()

        daemon.journal.append = record_then_stop
        with pytest.raises(IngestInterrupted):
            daemon.run()
        # The in-flight batch (a.csv) was finished and journaled; b.csv
        # was admitted but never attempted.
        statuses = {
            event.file: event.status for event in daemon.journal.latest().values()
        }
        assert statuses == {"a.csv": STATUS_FUSED, "b.csv": STATUS_ADMITTED}


class TestResume:
    def test_resume_replays_to_cold_rebuild_bytes(self, feed, tmp_path):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        out = tmp_path / "out"
        out.mkdir()
        first = make_daemon(feed, out)
        assert first.run(max_batches=1)["fused"] == 1
        # A brand-new process: fresh pipeline and daemon, same journal.
        second = make_daemon(feed, out)
        summary = second.run(resume=True, max_batches=1)
        assert summary["replayed"] == 1
        assert summary["fused"] == 1

        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), [a, b], cold / "matches.csv", cold / "clusters.json")
        assert output_bytes(out) == output_bytes(cold)

    def test_resume_refuses_missing_fused_source(self, feed, tmp_path):
        path = write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path)
        daemon.run(max_batches=1)
        path.unlink()
        with pytest.raises(DataError, match="cannot resume"):
            make_daemon(feed, tmp_path).run(resume=True, max_idle_polls=1)

    def test_resume_refuses_changed_fused_source(self, feed, tmp_path):
        path = write_source(feed, "a.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path)
        daemon.run(max_batches=1)
        path.write_text(source_csv_text("srcA", PROPS_B))
        with pytest.raises(DataError, match="changed since it was fused"):
            make_daemon(feed, tmp_path).run(resume=True, max_idle_polls=1)

    def test_resume_keeps_quarantined_sources_quarantined(self, feed, tmp_path):
        write_poison_csv(feed / "bad.csv")
        daemon = make_daemon(feed, tmp_path, max_retries=0)
        assert daemon.run(max_idle_polls=3)["quarantined"] == 1
        events_before = len(daemon.journal.events())
        summary = make_daemon(feed, tmp_path).run(resume=True, max_idle_polls=3)
        assert summary == {
            "replayed": 0,
            "fused": 0,
            "quarantined": 0,
            "polls": summary["polls"],
        }
        assert len(IngestJournal(tmp_path / "ingest.journal").events()) == events_before

"""Tests for the command-line interface."""

import csv
import hashlib

import pytest

from repro.cli import main
from repro.core.pipeline import FeaturePipeline


class TestGenerate:
    def test_writes_all_files(self, tmp_path, capsys):
        code = main(
            ["generate", "--dataset", "tvs", "--scale", "tiny", "--out", str(tmp_path)]
        )
        assert code == 0
        for filename in ("instances.csv", "alignment.csv", "dataset.json"):
            assert (tmp_path / filename).exists()
        assert "tvs" in capsys.readouterr().out


class TestStats:
    def test_builtin_dataset(self, capsys):
        code = main(["stats", "--dataset", "headphones", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "headphones" in out
        assert "sources" in out

    def test_user_csv(self, tmp_path, capsys):
        instances = tmp_path / "instances.csv"
        instances.write_text(
            "source,property,entity,value\n"
            "A,resolution,e1,20 mp\n"
            "B,megapixels,e2,24 mp\n"
        )
        code = main(["stats", "--instances", str(instances)])
        assert code == 0
        assert "2 sources" in capsys.readouterr().out

    def test_no_dataset_or_instances_fails(self, capsys):
        code = main(["stats"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_quarantined_rows_surfaced(self, tmp_path, capsys):
        instances = tmp_path / "instances.csv"
        instances.write_text(
            "source,property,entity,value\n"
            "A,resolution,e1,20 mp\n"
            "A,,e1,oops\n"
            "B,megapixels,e2,24 mp\n"
        )
        code = main(["stats", "--instances", str(instances)])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows quarantined on load: 1 (A=1)" in out
        assert ":3" in out  # the offending line is pointed at


class TestEvaluate:
    @pytest.mark.parametrize("system", ["leapme", "aml", "lsh"])
    def test_systems_run(self, system, capsys):
        code = main(
            [
                "evaluate",
                "--dataset", "headphones",
                "--scale", "tiny",
                "--system", system,
                "--train-fraction", "0.6",
                "--repetitions", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P=" in out and "F1=" in out

    def test_journal_written_and_resumed(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "evaluate",
            "--dataset", "headphones",
            "--scale", "tiny",
            "--system", "lsh",
            "--train-fraction", "0.6",
            "--repetitions", "2",
            "--journal", str(journal),
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert str(journal) in first_out
        assert journal.exists()
        lines = journal.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 repetitions

        assert main(argv + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "(resumed)" in resumed_out
        assert "2 resumed" in resumed_out
        # Resuming re-ran nothing, so no new repetition lines appeared.
        assert len(journal.read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("blocking", [None, "minhash"])
    def test_fully_resumed_run_featurizes_nothing(
        self, tmp_path, capsys, monkeypatch, blocking
    ):
        argv = [
            "evaluate",
            "--dataset", "headphones",
            "--scale", "tiny",
            "--system", "leapme",
            "--train-fraction", "0.6",
            "--repetitions", "1",
            "--journal", str(tmp_path / "run.jsonl"),
        ]
        if blocking is not None:
            argv += ["--blocking", blocking]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        calls = []
        name_pair_rows = FeaturePipeline.name_pair_rows
        property_columns = FeaturePipeline.property_columns

        def counted_distances(self, table, left_rows, right_rows):
            calls.append(len(left_rows))
            return name_pair_rows(self, table, left_rows, right_rows)

        def counted_columns(self, dataset):
            calls.append(dataset.name)
            return property_columns(self, dataset)

        monkeypatch.setattr(FeaturePipeline, "name_pair_rows", counted_distances)
        monkeypatch.setattr(FeaturePipeline, "property_columns", counted_columns)
        assert main(argv + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "1 resumed" in resumed_out
        assert calls == []
        # The blocked report still carries the universe's blocking stats.
        assert ("recall" in resumed_out) == ("recall" in first_out)

    def test_resume_without_journal_rejected(self, capsys):
        code = main(
            ["evaluate", "--dataset", "headphones", "--scale", "tiny",
             "--system", "lsh", "--repetitions", "1", "--resume"]
        )
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_parallel_evaluate_with_failure_model_flags(self, capsys):
        code = main(
            [
                "evaluate",
                "--dataset", "headphones",
                "--scale", "tiny",
                "--system", "lsh",
                "--train-fraction", "0.6",
                "--repetitions", "2",
                "--workers", "2",
                "--cell-timeout", "120",
                "--max-pool-respawns", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P=" in out and "F1=" in out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_worker_count_rejected(self, workers, capsys):
        code = main(
            ["evaluate", "--dataset", "headphones", "--scale", "tiny",
             "--system", "lsh", "--repetitions", "1", "--workers", workers]
        )
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_cell_timeout_needs_a_pool(self, capsys):
        code = main(
            ["evaluate", "--dataset", "headphones", "--scale", "tiny",
             "--system", "lsh", "--repetitions", "1",
             "--cell-timeout", "0.000001"]
        )
        assert code == 2
        assert "workers >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system_args",
        [
            ["--system", "lsh", "--repetitions", "2"],
            ["--system", "leapme", "--blocking", "minhash", "--repetitions", "1"],
        ],
        ids=["lsh", "leapme-minhash"],
    )
    def test_worker_counts_write_identical_journals_and_lines(
        self, system_args, tmp_path, capsys
    ):
        outputs = {}
        for workers in ("1", "2"):
            journal = tmp_path / f"run-{workers}.jsonl"
            argv = [
                "evaluate",
                "--dataset", "headphones",
                "--scale", "tiny",
                "--train-fraction", "0.6",
                "--workers", workers,
                "--journal", str(journal),
            ] + system_args
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            # The last line names the journal path, which differs.
            assert lines[-1] == f"journal: {journal}"
            outputs[workers] = (lines[:-1], journal.read_bytes())
        assert outputs["1"] == outputs["2"]


class TestDescribe:
    def test_summarises_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "evaluate",
            "--dataset", "headphones",
            "--scale", "tiny",
            "--system", "lsh",
            "--train-fraction", "0.6",
            "--repetitions", "2",
            "--journal", str(journal),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["describe", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        code = main(["describe", "--journal", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "journal not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[1]\n",
            '{"type": "registry-journal", "version": 1}\n"x"\n',
        ],
    )
    def test_non_object_line_is_a_journal_error(self, tmp_path, capsys, text):
        path = tmp_path / "broken.jsonl"
        path.write_text(text)
        code = main(["describe", "--journal", str(path)])
        assert code == 2
        assert "error: corrupt journal line" in capsys.readouterr().err


class TestFeaturesDescribe:
    """``repro features describe`` prints Table I's layout byte for byte."""

    @pytest.mark.parametrize(
        "dimension, digest",
        [("300", "a17cb26284181aee"), ("8", "202e6374e047cd6c")],
    )
    def test_all_configs_pinned(self, dimension, digest, capsys):
        assert main(["features", "describe", "--dimension", dimension]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 43
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest

    @pytest.mark.parametrize("dimension", ["0", "-5"])
    def test_non_positive_dimension_rejected(self, dimension, capsys):
        code = main(["features", "describe", "--dimension", dimension])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: embedding dimension must be >= 1" in captured.err


class TestMatch:
    def test_supervised_match_to_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "matches.csv"
        code = main(
            [
                "match",
                "--dataset", "headphones",
                "--scale", "tiny",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows, "no matches emitted"
        for row in rows:
            assert float(row["score"]) >= 0.5
            assert row["left_source"] != row["right_source"]

    def test_unsupervised_match_on_user_data(self, tmp_path, capsys):
        instances = tmp_path / "instances.csv"
        instances.write_text(
            "source,property,entity,value\n"
            "A,resolution,e1,20 mp\n"
            "B,resolution,e2,24 mp\n"
            "B,weight,e2,300 g\n"
        )
        out_csv = tmp_path / "matches.csv"
        code = main(
            ["match", "--instances", str(instances), "--system", "aml",
             "--out", str(out_csv)]
        )
        assert code == 0
        with out_csv.open() as handle:
            rows = list(csv.DictReader(handle))
        assert any(
            row["left_property"] == "resolution" and row["right_property"] == "resolution"
            for row in rows
        )

    def test_match_without_alignment_fails_for_supervised(self, tmp_path, capsys):
        instances = tmp_path / "instances.csv"
        instances.write_text(
            "source,property,entity,value\nA,p,e,v\nB,q,e2,w\n"
        )
        code = main(
            ["match", "--instances", str(instances), "--out", str(tmp_path / "m.csv")]
        )
        assert code == 2
        assert "no positive training pairs" in capsys.readouterr().err

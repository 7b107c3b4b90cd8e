"""The shared journal reader on lines that parse as JSON but are not objects."""

import json

import pytest

from repro.errors import JournalError
from repro.evaluation import RunJournal
from repro.ingest import IngestJournal
from repro.serve import RegistryJournal

KINDS = pytest.mark.parametrize(
    "journal_cls, header_type, record_type",
    [
        (RunJournal, "journal", "repetition"),
        (IngestJournal, "ingest-journal", "source"),
        (RegistryJournal, "registry-journal", "tenant"),
    ],
)
NON_OBJECTS = pytest.mark.parametrize("line", ["[1]", '"x"', "3", "null"])


@KINDS
@NON_OBJECTS
def test_non_object_header_is_corrupt(
    tmp_path, journal_cls, header_type, record_type, line
):
    path = tmp_path / "journal.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(JournalError, match="corrupt journal line 1"):
        journal_cls(path).describe()


@KINDS
@NON_OBJECTS
def test_non_object_body_line_is_corrupt(
    tmp_path, journal_cls, header_type, record_type, line
):
    path = tmp_path / "journal.jsonl"
    header = json.dumps({"type": header_type, "version": 1})
    path.write_text(f"{header}\n{line}\n")
    with pytest.raises(JournalError, match="corrupt journal line 2"):
        journal_cls(path).describe()


@KINDS
def test_torn_final_line_stays_recoverable(
    tmp_path, journal_cls, header_type, record_type
):
    path = tmp_path / "journal.jsonl"
    header = json.dumps({"type": header_type, "version": 1})
    path.write_text(f'{header}\n{{"type": "{record_type}", "ke')
    assert "(empty)" in journal_cls(path).describe()

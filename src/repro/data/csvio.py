"""CSV ingestion for user-provided datasets.

Downstream users rarely have data in this library's JSON format; the
common interchange is two CSV files:

* an **instances** file with columns ``source, property, entity, value``
  (one property instance per row -- the paper's ``(p, e, v)`` tuples
  plus their source);
* an optional **alignment** file with columns
  ``source, property, reference`` mapping source properties to the
  reference ontology (the ground truth; omit it for pure prediction).

Malformed *rows* (short rows, empty required cells) are quarantined as
structured :class:`~repro.data.model.DataValidationError` records
instead of raising: a bad line in a million-row export must not crash
an experiment grid hours in.  The surviving dataset carries the records
(``Dataset.validation``) and per-source drop counts
(``Dataset.rows_dropped()``), and the stats layer reports them, so the
loss is visible rather than silent.  Dropped *alignment* rows
additionally log a warning at load time: they define the ground truth,
so losing one shifts recall/F1 of every evaluation on the dataset
rather than merely shrinking the input.

Structural problems split two ways.  States a file legitimately passes
through while an external writer is still producing it -- a zero-byte
file, a file whose header row has not landed yet -- raise
:class:`~repro.errors.TransientDataError`, so a follow-mode ingester
(:mod:`repro.ingest`) retries instead of quarantining a source
mid-write.  Problems that cannot heal by re-reading the same bytes -- a
missing file, a header that lacks required *columns* -- raise the
permanent :class:`~repro.errors.DataError`: those mean the file as a
whole is not what the caller thinks it is.
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path

from repro.data.model import (
    Dataset,
    DataValidationError,
    PropertyInstance,
    PropertyRef,
)
from repro.errors import DataError, TransientDataError
from repro.ioutils import atomic_open_text

logger = logging.getLogger(__name__)

INSTANCE_COLUMNS = ("source", "property", "entity", "value")
ALIGNMENT_COLUMNS = ("source", "property", "reference")


def _read_rows(
    path: Path,
    required: tuple[str, ...],
    quarantined: list[DataValidationError],
) -> list[dict[str, str]]:
    """Rows of ``path`` with every required cell present and non-blank.

    Rows failing validation are appended to ``quarantined`` (with path,
    line number, best-effort source attribution and a reason) and
    dropped.  File-level problems raise :class:`DataError`; the states
    a half-written file passes through (zero bytes, no header row yet)
    raise the retryable :class:`TransientDataError` subclass instead,
    so followers can wait the writer out.
    """
    if not path.exists():
        raise DataError(f"CSV file not found: {path}")
    if path.stat().st_size == 0:
        raise TransientDataError(
            f"CSV file is empty (writer may still be producing it): {path}"
        )
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        # ``fieldnames`` is None for a file the reader finds empty and
        # ``[]`` when only blank lines have landed so far -- both are
        # states a half-written file passes through.
        if not reader.fieldnames:
            raise TransientDataError(
                f"CSV file has no header row yet "
                f"(writer may still be producing it): {path}"
            )
        missing = [column for column in required if column not in reader.fieldnames]
        if missing:
            raise DataError(
                f"{path} is missing required columns {missing}; "
                f"found {reader.fieldnames}"
            )
        rows = []
        for line_number, row in enumerate(reader, start=2):
            short = [column for column in required if row.get(column) is None]
            if short:
                quarantined.append(
                    DataValidationError(
                        path=str(path),
                        line=line_number,
                        reason=f"short row: missing column(s) {short}",
                        source=(row.get("source") or "").strip() or None,
                    )
                )
                continue
            empty = [column for column in required if not row[column].strip()]
            if empty:
                quarantined.append(
                    DataValidationError(
                        path=str(path),
                        line=line_number,
                        reason=f"empty value in column(s) {empty}",
                        source=(row.get("source") or "").strip() or None,
                    )
                )
                continue
            rows.append(row)
        return rows


def load_dataset_csv(
    instances_path: str | Path,
    alignment_path: str | Path | None = None,
    name: str | None = None,
) -> Dataset:
    """Build a :class:`Dataset` from instance (and optional alignment) CSVs.

    Malformed rows are quarantined into ``Dataset.validation`` rather
    than raising (see module docstring).  Alignment rows referring to
    properties absent from the instance file are rejected -- they would
    silently distort recall.
    """
    instances_path = Path(instances_path)
    quarantined: list[DataValidationError] = []
    instance_rows = _read_rows(instances_path, INSTANCE_COLUMNS, quarantined)
    instances = [
        PropertyInstance(
            source=row["source"].strip(),
            property_name=row["property"].strip(),
            entity_id=row["entity"].strip(),
            value=row["value"],
        )
        for row in instance_rows
    ]
    alignment: dict[PropertyRef, str] = {}
    if alignment_path is not None:
        alignment_path = Path(alignment_path)
        dropped_before_alignment = len(quarantined)
        for row in _read_rows(alignment_path, ALIGNMENT_COLUMNS, quarantined):
            ref = PropertyRef(row["source"].strip(), row["property"].strip())
            alignment[ref] = row["reference"].strip()
        alignment_dropped = len(quarantined) - dropped_before_alignment
        if alignment_dropped:
            # Alignment rows are ground truth: dropping one silently
            # shifts recall/F1 of every evaluation on this dataset, so
            # the quarantine is loud even though it does not raise.
            logger.warning(
                "%d malformed alignment row(s) quarantined from %s; "
                "ground-truth coverage is reduced and recall/F1 will "
                "shift -- inspect Dataset.validation (or `repro stats`) "
                "and repair the file",
                alignment_dropped,
                alignment_path,
            )
    return Dataset(
        name=name or instances_path.stem,
        instances=instances,
        alignment=alignment,
        validation=tuple(quarantined),
    )


def load_source_csv(
    path: str | Path, alignment_path: str | Path | None = None
) -> Dataset:
    """One source file to add to a live dataset, named after its stem.

    :func:`load_dataset_csv` plus the check every add-source caller
    needs: a file from which no row survives raises :class:`DataError`
    instead of merging as an empty addition.
    """
    path = Path(path)
    addition = load_dataset_csv(path, alignment_path, name=path.stem)
    if not addition.sources():
        raise DataError(f"no usable rows in {path}")
    return addition


def save_dataset_csv(
    dataset: Dataset,
    instances_path: str | Path,
    alignment_path: str | Path | None = None,
) -> None:
    """Write a dataset as CSV (inverse of :func:`load_dataset_csv`).

    Both files are written atomically (temp sibling + rename): datasets
    are experiment inputs, and a half-written instances file silently
    changes every result computed from it (REP002).
    """
    with atomic_open_text(instances_path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(INSTANCE_COLUMNS)
        for instance in dataset.instances:
            writer.writerow(
                [instance.source, instance.property_name, instance.entity_id, instance.value]
            )
    if alignment_path is not None:
        with atomic_open_text(alignment_path, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(ALIGNMENT_COLUMNS)
            for ref, reference in sorted(dataset.alignment.items()):
                writer.writerow([ref.source, ref.name, reference])

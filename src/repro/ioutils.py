"""Crash-safe filesystem helpers.

Every artifact the library writes (dataset JSON, run journals, the
distance cache) goes through these helpers so that a process killed mid-write
never leaves a corrupt or half-written file behind: content is written
to a temporary sibling in the same directory and atomically swapped into
place with :func:`os.replace`.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path


@contextlib.contextmanager
def atomic_path(path: str | Path, suffix: str = "") -> Iterator[Path]:
    """Yield a temporary path that replaces ``path`` on clean exit.

    The temporary file lives in the destination directory (so the final
    :func:`os.replace` never crosses a filesystem boundary).  If the body
    raises, the temporary file is removed and the destination is left
    exactly as it was.

    ``suffix`` is appended to the temporary name for writers that infer
    the format from the extension (e.g. ``numpy.savez`` appends ``.npz``
    to names without one).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=suffix
    )
    os.close(descriptor)
    temp = Path(temp_name)
    try:
        yield temp
        os.replace(temp, path)
        _fsync_directory(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            temp.unlink()
        raise


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry to disk (best effort; no-op where unsupported)."""
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _fsync_file(path: Path) -> None:
    """Flush an already-written file's contents to disk."""
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write_text(path: str | Path, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text`` (fsynced before the swap)."""
    with atomic_path(path) as temp:
        with temp.open("w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())


@contextlib.contextmanager
def atomic_open_text(
    path: str | Path, encoding: str = "utf-8", newline: str | None = None
) -> Iterator:
    """Yield a text handle whose contents atomically replace ``path``.

    For streaming writers (``csv.writer`` and friends) that want a file
    object rather than a final string.  The handle is flushed and
    fsynced before the swap; if the body raises, the destination is
    untouched.  ``newline`` is forwarded to :meth:`Path.open` (pass
    ``""`` for csv, per the stdlib docs).
    """
    with atomic_path(path) as temp:
        with temp.open("w", encoding=encoding, newline=newline) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (fsynced before the swap)."""
    with atomic_path(path) as temp:
        with temp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())


def atomic_save(path: str | Path, writer: Callable[[Path], None], suffix: str = "") -> None:
    """Run ``writer(temp_path)`` and atomically move its output to ``path``.

    For writers that insist on opening the file themselves
    (``numpy.savez_compressed`` and friends).  The writer's output is
    fsynced before the swap, so a crash shortly after a save can never
    leave an empty or partial destination.
    """
    with atomic_path(path, suffix=suffix) as temp:
        writer(temp)
        _fsync_file(temp)


def fsync_append_line(path: str | Path, line: str, encoding: str = "utf-8") -> None:
    """Append one newline-terminated line and fsync it to disk.

    ``O_APPEND`` writes of a single small line are effectively atomic on
    POSIX filesystems; a kill between the write and the fsync can at
    worst leave one torn *final* line, which journal readers detect and
    ignore (see :mod:`repro.journal`).  Before appending,
    any torn tail left by a previous kill is truncated away — otherwise
    the new record would merge into the torn line and corrupt both.
    """
    if not line.endswith("\n"):
        line += "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as handle:
        _truncate_torn_tail(handle)
        handle.write(line.encode(encoding))
        handle.flush()
        os.fsync(handle.fileno())


def _truncate_torn_tail(handle) -> None:
    """Drop an unterminated final line from an append-mode binary handle.

    A torn tail is, by construction, data that was never acknowledged as
    durably written (its fsync did not complete), so removing it loses
    nothing a reader could have trusted.
    """
    size = handle.seek(0, os.SEEK_END)
    if size == 0:
        return
    handle.seek(size - 1)
    if handle.read(1) == b"\n":
        return
    position = size
    keep = 0
    while position > 0:
        step = min(4096, position)
        handle.seek(position - step)
        chunk = handle.read(step)
        newline = chunk.rfind(b"\n")
        if newline != -1:
            keep = position - step + newline + 1
            break
        position -= step
    handle.truncate(keep)

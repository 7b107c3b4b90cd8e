"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    PYTHONPATH=src python bench/launch_server.py --spans SPANS.json serve --http ...

Everything after ``--spans FILE`` is handed to ``repro.cli.main``
unchanged.  When the server drains (SIGINT/SIGTERM) the recorded spans
are written to ``FILE`` and the CLI's exit code is returned.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launch_server.py --spans FILE <repro arguments>", file=sys.stderr)
        return 2
    spans_path = Path(argv[1])

    import spans
    from repro import cli  # before install: cli imports layer functions by name

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(argv[2:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

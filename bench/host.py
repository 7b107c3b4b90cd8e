"""The host record printed with every run.

Timings depend on the machine: CPU count, the BLAS library numpy
links and how many threads it starts, and what else is running.  The
benchmark pins none of these (users do not either); it records them.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys

#: Symbols that report the OpenBLAS thread count, by build flavour.
_OPENBLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas() -> tuple[str, int | None]:
    """Loaded BLAS library name and its thread count (None if unknown)."""
    try:
        with open("/proc/self/maps") as handle:
            maps = handle.read()
    except OSError:
        return "unknown", None
    libraries = sorted(set(re.findall(r"(/\S*(?:blas|mkl_rt)\S*\.so[.\d]*)", maps)))
    for path in libraries:
        name = os.path.basename(path)
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return name, int(getter())
        return name, None
    return "unknown", None


def record() -> list[tuple[str, str]]:
    """``(key, value)`` pairs describing this host and interpreter."""
    # Imported here, not at module level: numpy loads the BLAS library,
    # which reads its thread settings from the environment only then.
    import numpy

    blas, threads = _blas()
    load1, _, _ = os.getloadavg()
    return [
        ("nproc", str(os.cpu_count())),
        ("affinity", str(len(os.sched_getaffinity(0)))),
        ("load1", f"{load1:.2f}"),
        ("blas", blas),
        ("blas_threads", "unknown" if threads is None else str(threads)),
        ("numpy", numpy.__version__),
        ("python", platform.python_version()),
    ]


def warn_if_loaded(pairs: list[tuple[str, str]]) -> None:
    values = dict(pairs)
    if float(values["load1"]) > int(values["nproc"]):
        print(
            f"warning: load average {values['load1']} exceeds nproc "
            f"{values['nproc']}; timings are likely inflated",
            file=sys.stderr,
        )

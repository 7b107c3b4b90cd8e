"""Shared fixtures and a global per-test timeout.

Fixtures build tiny datasets and embeddings, cached per session.  The
timeout hook guards the whole suite against hangs: the chaos tests
deliberately wedge worker processes, and a supervision bug must fail
the test, not freeze CI.  Implemented with ``SIGALRM`` (no third-party
timeout plugin is available in this environment); override the budget
with ``REPRO_TEST_TIMEOUT`` seconds, ``0`` disables it.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.data.pairs import LabeledPair, explicit_pairs
from repro.datasets import build_domain_embeddings, load_dataset

from tests.core.oracle import pair_matrix

TEST_TIMEOUT_SECONDS = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    no_alarm = (
        TEST_TIMEOUT_SECONDS <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    )
    if no_alarm:
        return (yield)

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded the global {TEST_TIMEOUT_SECONDS:.0f}s timeout "
            f"(REPRO_TEST_TIMEOUT): {item.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_SECONDS)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def direct_pair_matrix(table, pairs, config):
    """``pairs``' feature matrix from one oracle call on ``table``.

    The direct side of the store equivalence tests: the table rows of
    each pair's ends go straight to ``tests.core.oracle.pair_matrix``,
    with no pair universe or store in between.
    """
    row = {ref: index for index, ref in enumerate(table.refs)}
    ends = [
        (pair.left, pair.right) if isinstance(pair, LabeledPair) else pair
        for pair in pairs
    ]
    left = np.array([row[left] for left, _ in ends], dtype=np.int64)
    right = np.array([row[right] for _, right in ends], dtype=np.int64)
    return pair_matrix(table, left, right, config)


def pair_request(dataset, pairs):
    """Pair objects or ref tuples as an explicit set over ``dataset``.

    Each pair keeps its own orientation.  A ref foreign to ``dataset``
    gets index ``-1``, which :func:`explicit_pairs` rejects.
    """
    index = {ref: i for i, ref in enumerate(dataset.properties())}
    ends = [
        (pair.left, pair.right) if isinstance(pair, LabeledPair) else pair
        for pair in pairs
    ]
    return explicit_pairs(
        dataset,
        [index.get(left, -1) for left, _ in ends],
        [index.get(right, -1) for _, right in ends],
    )


def full_matrix(store):
    """Every universe row of ``store`` at full width, one gather."""
    return store.gather(store.universe.subset(), slice(None))


@pytest.fixture(scope="session")
def tiny_headphones():
    """A small but realistic multi-source dataset."""
    return load_dataset("headphones", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_cameras():
    """The camera domain at test scale."""
    return load_dataset("cameras", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_embeddings():
    """Trained embeddings covering the tiny headphone domain."""
    return build_domain_embeddings("headphones", scale="tiny")


@pytest.fixture(scope="session")
def tiny_camera_embeddings():
    """Trained embeddings covering the tiny camera domain."""
    return build_domain_embeddings("cameras", scale="tiny")


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)

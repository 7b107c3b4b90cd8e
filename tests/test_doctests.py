"""Run the executable examples embedded in module docstrings.

Keeps the ``>>>`` examples that document the public API honest -- a
doc example that drifts from the implementation fails the suite.

Modules are resolved through :mod:`importlib` because several package
``__init__`` re-exports shadow same-named submodules (``repro.text.tokenize``
the attribute is the *function*, not the module).
"""

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "repro.text.chartypes",
    "repro.text.tokenize",
    "repro.text.levenshtein",
    "repro.text.lcs",
    "repro.text.ngrams",
    "repro.text.jaro",
    "repro.text.similarity",
    "repro.text.normalize",
    "repro.embeddings.hashing",
    "repro.datasets.naming",
    "repro.nn.network",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
    assert results.attempted > 0, f"{module_name} has no doctests to run"

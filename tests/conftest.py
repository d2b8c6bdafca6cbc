"""Shared marks and fixtures for tests of the forked worker pool behind
``evaluation.ordered_map`` (``egoact synth``, ``extract`` and ``evaluate``)."""

import multiprocessing

import pytest

from egoact import evaluation

forking = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                             reason="ordered_map runs inline where fork is missing")


@pytest.fixture
def many_cpus(monkeypatch):
    """Let ``ordered_map`` fork as many workers as asked, whatever the machine."""
    monkeypatch.setattr(evaluation, "usable_cpus", lambda: 8)

"""Hypothesis runs derandomized, with a fixed example budget and no
example database, so the suite draws the same examples on every run and
its running time is bounded.

``raw_walks`` counts the walks behind Diagram's derived structures."""

import functools
from collections import Counter

import pytest
from hypothesis import settings

from qalinks.diagram import Diagram

settings.register_profile("tier1", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("tier1")

DERIVED = ("faces", "checkerboard", "pieces", "strand_orbit_pairs",
           "seifert_circles")


@pytest.fixture
def raw_walks(monkeypatch):
    """Counter of (structure, id of diagram) -> calls of the undecorated
    function that derives the structure, while the test runs."""
    from qalinks.diagram import _derived
    counts = Counter()
    walked = []  # keeps every counted diagram alive, so ids stay distinct
    for name in DERIVED:
        raw = Diagram.__dict__[name].__wrapped__

        @functools.wraps(raw)
        def counted(self, raw=raw):
            walked.append(self)
            counts[raw.__name__, id(self)] += 1
            return raw(self)

        monkeypatch.setattr(Diagram, name, _derived(counted))
    return counts

"""Hypothesis runs derandomized, with a fixed example budget and no
example database, so the suite draws the same examples on every run and
its running time is bounded.

``raw_walks`` and ``pairing_walks`` count the walks behind Diagram's
derived structures; ``no_orientation_enumeration`` makes
``Diagram.orientations`` raise."""

import functools
from collections import Counter

import pytest
from hypothesis import settings

from qalinks.diagram import Diagram, _derived

settings.register_profile("tier1", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("tier1")

# Diagram's derived structures: the members ``_derived`` made, which all
# run its one inner function (and carry the raw walk as ``__wrapped__``)
_DERIVED_CODE = _derived(lambda self: None).__code__
DERIVED = tuple(name for name, member in vars(Diagram).items()
                if getattr(member, "__code__", None) is _DERIVED_CODE)


def _count_walks(monkeypatch, key) -> Counter:
    """Counter of (structure, key(diagram)) -> calls of the undecorated
    function that derives the structure, while the test runs."""
    counts = Counter()
    walked = []  # keeps every counted diagram alive, so ids stay distinct
    for name in DERIVED:
        raw = Diagram.__dict__[name].__wrapped__

        @functools.wraps(raw)
        def counted(self, raw=raw):
            walked.append(self)
            counts[raw.__name__, key(self)] += 1
            return raw(self)

        monkeypatch.setattr(Diagram, name, _derived(counted))
    return counts


@pytest.fixture
def raw_walks(monkeypatch):
    """Walks counted per diagram instance: (structure, id) -> calls."""
    return _count_walks(monkeypatch, id)


@pytest.fixture
def pairing_walks(monkeypatch):
    """Walks counted per planar map, whatever its orientation:
    (structure, (pairing, free loops)) -> calls."""
    return _count_walks(monkeypatch, lambda d: (d.pairing, d.free_loops))


@pytest.fixture
def no_orientation_enumeration(monkeypatch):
    """Fail any call of ``Diagram.orientations``, which tries all 2^(m-1)
    orientations of an m-component diagram, while the test runs."""
    def refuse(self):
        raise AssertionError("Diagram.orientations called")

    monkeypatch.setattr(Diagram, "orientations", refuse)

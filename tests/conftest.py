"""Hypothesis runs derandomized, with a fixed example budget and no
example database, so the suite draws the same examples on every run and
its running time is bounded."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("tier1")

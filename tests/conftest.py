"""Shared test settings.

Property tests run under one ``hypothesis`` profile: examples are
derived from each test's name (``derandomize``), nothing is stored
between runs and no example has a deadline, so the suite is
deterministic and its run time is bounded by ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("freqlab", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("freqlab")

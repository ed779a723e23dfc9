"""Shared test settings.

Property tests run under a fixed hypothesis profile: examples are derived
from each test's source rather than drawn at random, so a run gives the
same result every time, and the example count bounds the suite's time.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, max_examples=200,
                              deadline=None, database=None)
    settings.load_profile("deterministic")

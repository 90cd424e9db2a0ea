"""Shared test settings.

The property tests run under one fixed hypothesis profile: the examples
are derived from each test's source, so a run repeats the last one, and
about fifty of them per test keep the suite fast.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "corankone", derandomize=True, deadline=None, max_examples=50, database=None
    )
    settings.load_profile("corankone")

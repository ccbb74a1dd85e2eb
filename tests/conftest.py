"""Shared test configuration.

Property tests run under one hypothesis profile: a fixed number of
examples drawn from a derandomized generator, with no example database and
no per-example deadline, so that every run of the suite tries the same
inputs and a verdict never depends on timing or on an earlier run.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=200, deadline=None)
settings.load_profile("deterministic")

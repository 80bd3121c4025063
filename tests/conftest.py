"""Hypothesis profiles.  `ci` draws a fixed sequence of examples per test, so
a verdict depends only on the commit; select it with
`--hypothesis-profile=ci`.  The default profile keeps random exploration."""
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)


@pytest.fixture
def traced_peak():
    """peak(call): call()'s peak of traced allocations, in bytes (numpy reports its arrays to
    tracemalloc)."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak

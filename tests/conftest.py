"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``measure(fn, *args)`` calls ``fn(*args)`` under ``tracemalloc`` and
    returns its result and the peak bytes allocated during the call.  numpy
    reports its array buffers to ``tracemalloc``, so the peak counts them."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure

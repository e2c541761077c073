"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest

from qudit_qft.circuit import _outer_rows, _output_factors


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


@pytest.fixture
def full_halves():
    """``halves(circuit, x)``: the product halves of basis inputs ``x``
    with the left half whole, one column per input, as the compile builds
    them (``_outer_rows`` of the first ``n // 2`` of ``_output_factors``,
    one row of ones at n = 1).  A whole left half is its own period block,
    so every reader of ``_product_halves``' form reads it too; it is the
    reference the period form must match bit for bit."""
    def halves(circuit, x):
        factors = _output_factors(circuit, x)
        h = len(factors) // 2
        left = _outer_rows(factors[:h]) if h else np.ones((1, len(x)), np.complex128)
        return left, _outer_rows(factors[h:])
    return halves

"""The tail-sample rule the benchmark reports percentiles by.

Percentiles are numpy's default ("linear" between closest ranks).
"""

from __future__ import annotations

import numpy as np

MIN_BEYOND = 10


def beyond(samples, value: float) -> int:
    """Number of samples strictly above ``value``."""
    return sum(1 for s in samples if s > value)


def tail_ok(samples, q: float) -> bool:
    """Whether at least MIN_BEYOND samples lie beyond the q-th percentile."""
    return beyond(samples, float(np.percentile(samples, q))) >= MIN_BEYOND

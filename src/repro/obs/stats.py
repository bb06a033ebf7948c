"""Shared order statistics for metrics.

One nearest-rank percentile implementation for the whole repo.  It used
to exist three times (``NetMetrics.latency_percentiles``, a bench
harness, a load generator), each with its own off-by-one personality
on small samples; this module is the single canonical version.

Nearest-rank definition: the q-th percentile of ``n`` sorted samples is
the element at rank ``ceil(q * n)`` (1-based), i.e. the smallest sample
such that at least ``q * n`` samples are less than or equal to it.  No
interpolation, no numpy.  Edge cases are pinned by ``tests/obs``:

* an empty sample returns 0.0 for every ``q``;
* ``q <= 0`` returns the minimum, ``q >= 1`` the maximum;
* a 1-element sample returns that element for every ``q``;
* a 2-element sample returns the first element for p50 (rank
  ``ceil(0.5 * 2) = 1``) and the second for p95 — the former is where
  the old ``int(q * n)`` variant was biased one rank high whenever
  ``q * n`` landed exactly on an integer.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

__all__ = ["percentile", "percentiles"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (0.0 when empty).

    *q* is a fraction in ``[0, 1]`` (0.95 for p95).  Values outside the
    range clamp to the sample minimum / maximum rather than raising, so
    callers can feed configured quantiles straight through.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if q <= 0.0:
        return ordered[0]
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def percentiles(
    samples: Sequence[float], quantiles: Mapping[str, float]
) -> Dict[str, float]:
    """Named nearest-rank percentiles, sorting the pool only once.

    ``percentiles(latencies, {"p50": 0.5, "p99": 0.99})`` returns
    ``{"p50": ..., "p99": ...}``; an empty pool maps every name to 0.0.
    """
    if not samples:
        return {name: 0.0 for name in quantiles}
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[str, float] = {}
    for name, q in quantiles.items():
        if q <= 0.0:
            out[name] = ordered[0]
        else:
            rank = math.ceil(q * n)
            out[name] = ordered[min(n - 1, max(0, rank - 1))]
    return out

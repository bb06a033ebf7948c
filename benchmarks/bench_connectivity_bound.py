"""E5 — Theorem 3 (Section 5): with connectivity m+u the faulty halves F1
(m nodes) and F2 (u nodes) of a vertex cut break D.1 or D.3; with m+u+1
both scenarios are survivable.  Harary topologies, the disjoint-path relay
with u+1-copy acceptance.  Registry entry E5 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_connectivity_bound(benchmark):
    run_full(benchmark, "E5")

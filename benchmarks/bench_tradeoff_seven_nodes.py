"""E2 — the seven-node trade-off (Section 2): "given a system consisting of
7 nodes, one may achieve ... 2/2-degradable agreement, or 1/4-degradable
agreement, or 0/6-degradable agreement", and which guarantee holds for each
as f climbs 0..6.  Registry entry E2 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_seven_node_tradeoff(benchmark):
    run_full(benchmark, "E2")

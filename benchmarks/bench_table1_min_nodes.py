"""E1 — the Section 2 minimum-node table: ``2m + u + 1`` over m in 0..3,
u in 0..6 (a dash where ``u < m``), each cell fuzzed at the minimum
(sufficiency) and attacked with the Theorem 2 triple one node below it
(necessity).  Registry entry E1 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_table1_regeneration(benchmark):
    run_full(benchmark, "E1")

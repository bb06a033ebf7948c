"""E11 (extension) — mixed Byzantine/crash fault budgets: the guarantee
level per (byzantine b, crash c) budget and the pure-crash envelope, an
empirical characterization with no theorem claimed.  Registry entry E11
(``repro.analysis.runner``).
"""

from conftest import run_full


def test_mixed_fault_budgets(benchmark):
    run_full(benchmark, "E11")

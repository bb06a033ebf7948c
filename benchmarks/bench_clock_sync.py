"""E7 — degradable clock synchronization (Section 6): the candidate
algorithm against the conjecture's conditions (E7), interactive
convergence on both sides of a third two-faced clocks (E7b), and the
Section 6.2 witness clocks (E7c).  Registry entries E7, E7b and E7c
(``repro.analysis.runner``).
"""

from conftest import run_full


def test_degradable_clock_sync_conjecture(benchmark):
    run_full(benchmark, "E7")


def test_convergence_on_both_sides_of_a_third(benchmark):
    run_full(benchmark, "E7b")


def test_witness_clocks(benchmark):
    run_full(benchmark, "E7c")

"""E4 — Figure 2 and Theorem 2 (Section 5): the three fault scenarios, and
their group-simulation lift to any (m, u), run against BYZ at N = 2m+u (a
condition breaks) and 2m+u+1 (all hold), with the byte-identical local
views the proof relies on.  Registry entry E4 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_fig2_impossibility(benchmark):
    run_full(benchmark, "E4")

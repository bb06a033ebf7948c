"""E4b — exhaustive adversary search (Theorems 1 and 2, complete for m=1):
every deterministic adversary over a 3-symbol domain for the 1/1 and 1/2
instances; none violates at N = 2m+u+1, some do at N = 2m+u.  Registry
entry E4b (``repro.analysis.runner``).
"""

from conftest import run_full


def test_exhaustive_adversary_search(benchmark):
    run_full(benchmark, "E4b")

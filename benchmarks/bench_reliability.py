"""E8 — the cost-effectiveness claim (Sections 3 and 7): "the increase in
resource requirements is minimal".  The reliability model of 3m+1,
2m+u+1 and 3u+1 designs, and the Figure 1(b) system flown through
transient faults.  Registry entry E8 (``repro.analysis.runner``).
"""

from conftest import run_full


def test_reliability_model(benchmark):
    run_full(benchmark, "E8", blocks=slice(0, 1))


def test_mission_with_recovery(benchmark):
    """Forward recovery up to m, backward recovery and safe stops beyond —
    zero unsafe steps within the fault envelope."""
    run_full(benchmark, "E8", blocks=slice(1, 2))

"""E9 (extension) — the degradation-profile "figure".

The paper defines the regimes (Section 2) but never plots them; registry
entry E9 (``repro.analysis.runner``) renders the definitional staircase as
a measured figure for the 1/2- and 1/4-degradable instances.  E9b is the
degradable interactive consistency extension (conditions V.1/V.2, the
constructive counterpart to the Bhandari discussion).
"""

from conftest import run_full


def test_degradation_profiles(benchmark):
    run_full(benchmark, "E9")


def test_degradable_interactive_consistency(benchmark):
    """V.1/V.2 across every placement of up to u faults."""
    run_full(benchmark, "E9b")

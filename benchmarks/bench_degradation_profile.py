"""E9 (extension) — the degradation-profile "figure".

The paper defines the regimes (Section 2) but never plots them; registry
entry E9 (``repro.analysis.runner``) renders the definitional staircase as
a measured figure for the 1/2- and 1/4-degradable instances.  E9b is the
degradable interactive consistency extension (conditions V.1/V.2, the
constructive counterpart to the Bhandari discussion).
"""

import itertools

from conftest import emit, run_full

from repro.core.behavior import ChainLiar, TwoFacedBehavior
from repro.core.spec import DegradableSpec
from repro.core.vector_agreement import (
    classify_vectors,
    run_degradable_interactive_consistency,
)


def test_degradation_profiles(benchmark):
    run_full(benchmark, "E9")


def test_degradable_interactive_consistency(benchmark):
    """V.1/V.2 across every double-fault placement of the 1/2 instance."""
    spec = DegradableSpec(m=1, u=2, n_nodes=5)
    nodes = ["S", "p1", "p2", "p3", "p4"]
    private = {n: f"val-{n}" for n in nodes}

    def sweep():
        checked = 0
        for f in range(spec.u + 1):
            for faulty in itertools.combinations(nodes, f):
                behaviors = {
                    node: TwoFacedBehavior({"p1": "x", "p2": "y"})
                    if node == "S" else ChainLiar("junk", "S")
                    for node in faulty
                }
                vectors = run_degradable_interactive_consistency(
                    spec, nodes, private, behaviors
                )
                report = classify_vectors(spec, vectors, private, set(faulty))
                assert report.satisfied, (faulty, report.violations)
                checked += 1
        return checked

    checked = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert checked == 1 + 5 + 10
    emit(
        "E9b / extension — degradable interactive consistency",
        f"{checked} fault placements checked: identical valid vectors with "
        f"f <= m (V.1); pairwise-compatible two-class vectors with "
        f"m < f <= u (V.2).  Full identical-vector IC beyond N/3 stays "
        f"impossible (Bhandari) — compatibility is the degradable analogue.",
    )

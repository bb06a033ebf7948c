"""E6 — cost of algorithm BYZ vs the baselines (Section 4).

The paper presents BYZ without an efficiency claim; this experiment
quantifies the cost structure and the economics the degradable trade
enables: to *survive* u faults safely, BYZ(m, m) on 2m+u+1 nodes is
drastically cheaper than OM(u) on 3u+1 nodes, because recursion depth
follows m, not u.

Registry entry E6 (``repro.analysis.runner``) also cross-checks the
closed-form message counts against instrumented executions of both the
functional and the message-passing implementations (they must agree
exactly); the two speed tests here time the protocol run itself.
"""

from conftest import run_full

from repro.core.byz import run_degradable_agreement
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec


def test_message_complexity_tables(benchmark):
    run_full(benchmark, "E6")


def test_protocol_execution_speed(benchmark):
    """Wall-clock of one full message-passing BYZ run (2/3-degradable, 8 nodes)."""
    spec = DegradableSpec(m=2, u=3, n_nodes=8)
    nodes = [f"p{k}" for k in range(8)]

    def run():
        result, _ = execute_degradable_protocol(
            spec, nodes, nodes[0], "v", record_trace=False
        )
        return result

    result = benchmark(run)
    assert all(v == "v" for v in result.decisions.values())


def test_functional_execution_speed(benchmark):
    """Wall-clock of the functional oracle on the same instance."""
    spec = DegradableSpec(m=2, u=3, n_nodes=8)
    nodes = [f"p{k}" for k in range(8)]

    result = benchmark(
        lambda: run_degradable_agreement(spec, nodes, nodes[0], "v")
    )
    assert all(v == "v" for v in result.decisions.values())

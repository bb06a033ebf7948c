"""Lamport's OM(m) in the shapes the tests compare against: engine
processes (the message-passing twin of ``run_oral_messages``) and an
interactive-consistency building block."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.behavior import BehaviorMap
from repro.core.byz import AgreementResult
from repro.core.eig import majority_resolver
from repro.core.interactive_consistency import AgreementRunner
from repro.core.oral_messages import run_oral_messages
from repro.core.protocol import AgreementProcess, NodeId
from repro.core.values import Value
from repro.exceptions import ConfigurationError


def make_om_processes(
    m: int,
    nodes: Sequence[NodeId],
    sender: NodeId,
    sender_value: Value,
    tag: str = "om",
) -> List[AgreementProcess]:
    """Processes for one Lamport OM(m) instance (depth m+1, majority)."""
    if sender not in nodes:
        raise ConfigurationError(f"sender {sender!r} not among nodes")
    return [
        AgreementProcess(
            node_id=node,
            all_nodes=nodes,
            sender=sender,
            m=m,
            depth=m + 1 if m > 0 else 1,
            resolver=majority_resolver,
            value=sender_value if node == sender else None,
            tag=tag,
        )
        for node in nodes
    ]


def ic_runner_om(
    m: int, behaviors: Optional[BehaviorMap] = None, require_quorum: bool = True
) -> AgreementRunner:
    """An IC building block that uses Lamport's OM(m) per sender."""

    def run(nodes: Sequence[NodeId], sender: NodeId, value: Value) -> AgreementResult:
        return run_oral_messages(
            m, nodes, sender, value, behaviors, require_quorum=require_quorum
        )

    return run

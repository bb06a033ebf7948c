"""Engine-level test processes: a silent node, a recorder and a script."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.messages import Message
from repro.sim.node import NodeId, Process


class IdleProcess(Process):
    """A process that never sends anything (placeholder / crashed node)."""

    def step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        return []


class RecordingProcess(Process):
    """Stores everything it receives."""

    def __init__(self, node_id: NodeId) -> None:
        super().__init__(node_id)
        self.received: List[Message] = []

    def step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        self.received.extend(inbox)
        return []


class ScriptedProcess(Process):
    """Sends a fixed script of messages: ``{round: [(dest, payload)]}``,
    for a node that must emit specific messages at specific rounds."""

    def __init__(self, node_id: NodeId, script: Optional[dict] = None, tag: str = "") -> None:
        super().__init__(node_id)
        self.script = dict(script or {})
        self.tag = tag
        self.received: List[Message] = []

    def step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        self.received.extend(inbox)
        out = []
        for destination, payload in self.script.get(round_no, []):
            out.append(self.send(destination, payload, round_no, tag=self.tag))
        return out

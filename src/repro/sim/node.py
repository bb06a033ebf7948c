"""Process abstraction for the synchronous round engine.

A :class:`Process` is a state machine driven by the engine in lock-step
rounds.  Each round the engine delivers the messages sent to the process in
the previous round and collects the messages it wants to send next.  The
paper's model is synchronous (it relies on detecting message *absence*), so
there is no notion of asynchrony here — omissions and timeouts are fault
injections, not scheduling artefacts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, List, Sequence

from repro.sim.messages import Message

NodeId = Hashable


class Process(ABC):
    """Base class for all simulated nodes."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self._decision: Any = None
        self._decided = False

    # ------------------------------------------------------------------
    # Engine-facing API
    # ------------------------------------------------------------------
    @abstractmethod
    def step(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        """Execute one round.

        Parameters
        ----------
        round_no:
            1-based round number.
        inbox:
            Messages addressed to this node that were sent in round
            ``round_no - 1`` (empty in round 1).

        Returns
        -------
        Messages to send this round; they arrive in the next round's inbox
        of their destinations.
        """

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------
    @property
    def decided(self) -> bool:
        return self._decided

    @property
    def decision(self) -> Any:
        return self._decision

    def decide(self, value: Any) -> None:
        """Record the final decision (idempotent once set)."""
        if not self._decided:
            self._decision = value
            self._decided = True

    def send(self, destination: NodeId, payload: Any, round_no: int, tag: str = "") -> Message:
        """Convenience constructor stamping this node as the source."""
        return Message(
            source=self.node_id,
            destination=destination,
            payload=payload,
            round_sent=round_no,
            tag=tag,
        )

    def __repr__(self) -> str:
        state = f"decided={self._decision!r}" if self._decided else "running"
        return f"{type(self).__name__}({self.node_id!r}, {state})"

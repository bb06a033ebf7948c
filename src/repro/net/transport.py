"""Transport abstraction for the async runtime.

A :class:`Transport` moves :class:`~repro.net.codec.Frame` objects between
node endpoints.  The runner never cares how: :class:`LocalBus` ferries
frames through in-process asyncio queues without copying (built for massive
in-process fan-out), :class:`~repro.net.tcp.TcpTransport` ships
length-prefixed JSON over real localhost sockets.
Wrappers (chaos, supervision) derive from :class:`TransportLayer`,
which forwards the whole contract to the wrapped transport, so a layer
defines only the methods it changes.

Contract:

* :meth:`Transport.open` is called once with the full node set before any
  traffic; :meth:`Transport.close` releases every resource;
* :meth:`Transport.send` delivers one frame to its destination's inbox and
  returns the number of bytes that crossed the wire (0 when unmeasured);
  failures raise :class:`~repro.exceptions.TransportError` — the runner
  never retries: it records the frame as lost (the receiver sees absence).
  Only :class:`~repro.net.supervision.SupervisedTransport` re-dials, and it
  raises the same error once its backoff budget is spent.  The runner
  awaits a round's sends one after another, whatever the transport;
* :meth:`Transport.recv` returns the next frame addressed to a node,
  waiting until one arrives (the runner bounds the wait with the round
  deadline — that timeout *is* the paper's "detectable absence");
* :meth:`Transport.recv_nowait` returns the next frame already there, or
  ``None`` at once: the runner files what has arrived without a task of
  its own, and awaits ``recv`` only for a node that must still wait;
* :meth:`Transport.attach_metrics` hands the run's recorder down the
  stack — the one observer seam: a layer counts into it and publishes
  and traces through its ``bus`` and ``tracer``.
"""

from __future__ import annotations

import asyncio
import random
from abc import ABC, abstractmethod
from typing import Dict, Hashable, Optional, Sequence

from repro.exceptions import TransportError
from repro.net.codec import Frame, encode_frame
from repro.net.metrics import NetMetrics

NodeId = Hashable


def drain(inbox: "asyncio.Queue[Frame]") -> None:
    """Lose every frame queued in *inbox*, keeping the queue itself (an
    endpoint restart: whoever waits on it keeps waiting on the live one)."""
    while not inbox.empty():
        inbox.get_nowait()


def take_nowait(
    inboxes: Dict[NodeId, "asyncio.Queue[Frame]"], node: NodeId
) -> Optional[Frame]:
    """The next frame queued in *node*'s inbox, or ``None`` if it is empty."""
    inbox = inboxes.get(node)
    if inbox is None:
        raise TransportError(f"no endpoint for node {node!r}")
    return None if inbox.empty() else inbox.get_nowait()


class Transport(ABC):
    """Moves frames between the endpoints of one protocol run."""

    #: Human-readable transport name (shown in metrics).
    name = "abstract"

    @abstractmethod
    async def open(self, nodes: Sequence[NodeId]) -> None:
        """Provision an endpoint (inbox) for every node in *nodes*."""

    @abstractmethod
    async def send(self, frame: Frame) -> int:
        """Deliver *frame* to its destination endpoint; return wire bytes."""

    @abstractmethod
    async def recv(self, node: NodeId) -> Frame:
        """Next frame addressed to *node* (waits until one arrives)."""

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        """Next frame already queued for *node*, or ``None`` at once.

        The frames :meth:`recv` would return, in its order.  The default,
        ``None``, leaves the runner to :meth:`recv`; a transport that
        overrides :meth:`recv` overrides this too.
        """
        return None

    @abstractmethod
    async def close(self) -> None:
        """Tear down endpoints and release all resources."""

    def attach_metrics(self, metrics: NetMetrics) -> None:
        """Offer the run's recorder to the transport (the observer seam).

        The runner (or a service's mux) attaches its
        :class:`~repro.net.metrics.NetMetrics` before opening the
        transport; transports that observe what the runner cannot see
        (poisoned byte streams, injected chaos, link healing) record it
        there and publish and trace through the recorder's ``bus`` and
        ``tracer``.  Wrapping transports must forward the call.  The
        default is a no-op.
        """

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        """Runner notification: *round_no* just opened; it closes at
        *deadline* (loop time).

        Timing seam for transports whose behaviour depends on round
        boundaries — the schedule explorer's
        :class:`~repro.explore.transport.ExploredTransport` uses it to
        place delayed deliveries exactly before or after the deadline the
        runner will actually enforce, instead of re-deriving it.
        *instance* carries the runner's multiplexing identity (None for
        single-instance runs): round numbers are per instance, so a
        shared transport under a :class:`~repro.serve.mux.InstanceMux`
        needs it to attribute the boundary.  Wrapping transports must
        forward the call down their stack.  The default is a no-op; the
        notification is purely informational and must not raise.
        """

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        """Deliver a corrupted rendition of *frame* to its destination.

        Chaos seam.  A corrupted frame is by definition undecodable, so the
        default realization — appropriate for object-passing transports
        with no byte layer — is to lose the frame entirely: the receiver
        observes absence, exactly what a discarded undecodable frame
        amounts to.  Byte transports override this to put genuinely
        mangled bytes on the wire (:meth:`TcpTransport.send_corrupted`),
        exercising the receive-side decode-error path for real.
        """
        return 0

    def reset_connections(self, node: Optional[NodeId] = None) -> int:
        """Hard-reset any pooled connections touching *node* (all if None).

        Fault seam for the chaos layer's ``--kill-links`` mode.  Returns
        the number of connections severed.  Transports without connection
        state (object-passing buses) have nothing to sever — the default
        returns 0 — while socket transports override this to abort pooled
        writers so the next send on each link must re-dial.
        """
        return 0

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart *node*'s endpoint (fault seam, optional).

        Models a process restart: queued-but-unconsumed inbound frames are
        lost and the endpoint comes back fresh (socket transports also
        move to a new port).  The node keeps its inbox: it is emptied in
        place, never replaced, so a ``recv`` already waiting on *node*
        reads every frame delivered after the restart — a restart is a
        transient omission, not a permanent one.  Transports that cannot
        express a restart raise :class:`~repro.exceptions.TransportError`;
        wrappers forward down their stack.
        """
        raise TransportError(
            f"{self.name} transport cannot restart endpoint {node!r}"
        )

    async def __aenter__(self) -> "Transport":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class LocalBus(Transport):
    """In-process transport over per-node asyncio queues.

    Frames are delivered by reference — the payload object the sender hands
    over is the object the receiver gets, and nothing is ever decoded.
    Byte accounting is optional: ``measure_bytes=True`` runs
    :func:`~repro.net.codec.encode_frame` exactly once per frame, purely
    to size it — the only encode a frame on this bus ever costs, since
    batch savings are envelope arithmetic
    (:func:`~repro.net.codec.batch_bytes_saved`) — and the count is what
    TCP would carry minus the 4-byte length prefix.  Switch it off for
    raw fan-out throughput; sends then report 0 bytes and 0 saved.
    """

    name = "local"

    def __init__(self, measure_bytes: bool = True) -> None:
        self.measure_bytes = measure_bytes
        self._inboxes: Dict[NodeId, "asyncio.Queue[Frame]"] = {}

    async def open(self, nodes: Sequence[NodeId]) -> None:
        self._inboxes = {node: asyncio.Queue() for node in nodes}

    async def send(self, frame: Frame) -> int:
        inbox = self._inboxes.get(frame.destination)
        if inbox is None:
            raise TransportError(
                f"no endpoint for destination {frame.destination!r}"
            )
        nbytes = len(encode_frame(frame)) if self.measure_bytes else 0
        inbox.put_nowait(frame)
        return nbytes

    async def recv(self, node: NodeId) -> Frame:
        inbox = self._inboxes.get(node)
        if inbox is None:
            raise TransportError(f"no endpoint for node {node!r}")
        return await inbox.get()

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        return take_nowait(self._inboxes, node)

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart: queued-but-undelivered frames for *node* are lost."""
        inbox = self._inboxes.get(node)
        if inbox is None:
            raise TransportError(f"no endpoint for node {node!r}")
        drain(inbox)

    async def close(self) -> None:
        self._inboxes = {}


class TransportLayer(Transport):
    """One layer of a transport stack: the whole contract, forwarded.

    Holds the wrapped transport as :attr:`inner`, forwards every method of
    the :class:`Transport` contract down to it, and keeps the recorder the
    runner attaches (passing it on, so every layer of a stack sees the
    same one; a private one until then).  A concrete layer sets
    :attr:`layer` — its name reads ``<layer>+<inner name>`` — and
    overrides only what it changes.
    """

    #: This layer's prefix in the stack's name.
    layer = "layer"

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.metrics = NetMetrics(transport=self.name)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.layer}+{self.inner.name}"

    @property
    def tracer(self):
        """The span tracer of the attached recorder (None when untraced)."""
        return self.metrics.tracer

    def attach_metrics(self, metrics: NetMetrics) -> None:
        self.metrics = metrics
        self.inner.attach_metrics(metrics)

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        self.inner.round_opened(round_no, deadline, instance)

    async def open(self, nodes: Sequence[NodeId]) -> None:
        await self.inner.open(nodes)

    async def send(self, frame: Frame) -> int:
        return await self.inner.send(frame)

    async def recv(self, node: NodeId) -> Frame:
        return await self.inner.recv(node)

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        return self.inner.recv_nowait(node)

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        return await self.inner.send_corrupted(frame, rng)

    def reset_connections(self, node: Optional[NodeId] = None) -> int:
        return self.inner.reset_connections(node)

    async def restart_endpoint(self, node: NodeId) -> None:
        await self.inner.restart_endpoint(node)

    async def close(self) -> None:
        await self.inner.close()

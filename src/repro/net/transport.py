"""Transport abstraction for the async runtime.

A :class:`Transport` moves :class:`~repro.net.codec.Frame` objects between
node endpoints.  The runner never cares how: :class:`LocalBus` ferries
frames through in-process :class:`Inbox` queues without copying (built for
massive in-process fan-out), :class:`~repro.net.tcp.TcpTransport` ships
length-prefixed JSON over real localhost sockets into those same inboxes —
:class:`LocalBus` is the one endpoint store, and every transport with node
inboxes derives from it.
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
from collections import deque
from typing import Any, Dict, Hashable, Optional, Sequence

from repro.exceptions import TransportError
from repro.net.codec import Frame, frame_size
from repro.net.metrics import NetMetrics

NodeId = Hashable


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


class Inbox:
    """One node's queue of inbound frames: a deque and one reader.

    An inbox is read by one reader at a time — a mux pump, or one collect
    of a round — so it keeps a single waiter future where
    :class:`asyncio.Queue` keeps a getter list, unfinished-task count and
    a ``join`` event nobody here reads.  A put wakes the waiting reader
    the way ``asyncio.Queue`` wakes its first getter (the future's result
    is set; the reader pops on its next step), so every run's scheduling
    is the queue's.  A frame leaves only when a reader pops it: a
    :meth:`get` cancelled after its frame was put leaves that frame
    queued.  A second concurrent :meth:`get`, and a :meth:`get` on a
    closed inbox, raise :class:`~repro.exceptions.TransportError`;
    :meth:`close` wakes the waiting reader with that error.
    """

    __slots__ = ("_items", "_waiter", "_closed")

    def __init__(self) -> None:
        self._items: deque = deque()
        self._waiter: Optional[asyncio.Future] = None
        self._closed = False

    def put_nowait(self, item: Any) -> None:
        self._items.append(item)
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def get_nowait(self) -> Any:
        """The oldest item; :class:`IndexError` when there is none."""
        return self._items.popleft()

    def empty(self) -> bool:
        return not self._items

    async def get(self) -> Any:
        """The oldest item, waiting for one to be put."""
        if self._waiter is not None:
            raise TransportError("inbox already has a waiting reader")
        items = self._items
        while not items:
            if self._closed:
                raise TransportError("endpoint closed")
            waiter = self._waiter = asyncio.get_running_loop().create_future()
            try:
                await waiter
            finally:
                self._waiter = None
        return items.popleft()

    def clear(self) -> None:
        """Lose every queued item; a waiting reader keeps waiting."""
        self._items.clear()

    def close(self) -> None:
        """Refuse further waits and wake the waiting reader with
        :class:`~repro.exceptions.TransportError`."""
        self._closed = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_exception(TransportError("endpoint closed"))


class LocalBus(Transport):
    """In-process transport over per-node inboxes: the endpoint store.

    Every transport that ends in a node inbox keeps it here — one
    :class:`Inbox` per node, read by :meth:`recv`/:meth:`recv_nowait`,
    emptied in place by :meth:`restart_endpoint` and dropped by
    :meth:`close`, which wakes a reader waiting on it with
    :class:`~repro.exceptions.TransportError` — and overrides only how a
    frame arrives: :class:`~repro.net.tcp.TcpTransport` from a socket,
    :class:`~repro.serve.mux.InstanceChannel` from the mux's pump,
    :class:`~repro.explore.transport.ExploredTransport` when the schedule
    says.  A node without an inbox has no endpoint: every read raises
    :class:`~repro.exceptions.TransportError`.

    On the bus itself frames are delivered by reference — the payload
    object the sender hands over is the object the receiver gets, and
    nothing is ever encoded or decoded.  Byte accounting is optional:
    ``measure_bytes=True`` sizes each frame with
    :func:`~repro.net.codec.frame_size` — arithmetic on field lengths,
    never the frame's text, with the envelope a round's BATCH frames share
    sized once — and the count is what TCP would carry minus the 4-byte
    length prefix.  Switch it off for raw fan-out throughput;
    sends then report 0 bytes.
    """

    name = "local"

    def __init__(self, measure_bytes: bool = True) -> None:
        self.measure_bytes = measure_bytes
        self._inboxes: Dict[NodeId, Inbox] = {}

    async def open(self, nodes: Sequence[NodeId]) -> None:
        self._inboxes = {node: Inbox() for node in nodes}

    async def send(self, frame: Frame) -> int:
        inbox = self._inboxes.get(frame.destination)
        if inbox is None:
            raise TransportError(
                f"no endpoint for destination {frame.destination!r}"
            )
        nbytes = frame_size(frame) if self.measure_bytes else 0
        inbox.put_nowait(frame)
        return nbytes

    def _inbox(self, node: NodeId) -> Inbox:
        inbox = self._inboxes.get(node)
        if inbox is None:
            raise TransportError(f"no endpoint for node {node!r}")
        return inbox

    async def recv(self, node: NodeId) -> Frame:
        return await self._inbox(node).get()

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        inbox = self._inbox(node)
        return None if inbox.empty() else inbox.get_nowait()

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart: queued-but-undelivered frames for *node* are lost;
        the inbox itself stays, so whoever waits on it keeps waiting on
        the live one."""
        self._inbox(node).clear()

    def drop_endpoints(self) -> None:
        """Drop every inbox, waking a reader waiting on one with
        :class:`~repro.exceptions.TransportError`."""
        for inbox in self._inboxes.values():
            inbox.close()
        self._inboxes = {}

    async def close(self) -> None:
        self.drop_endpoints()


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

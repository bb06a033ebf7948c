"""Real-socket transport: length-prefixed JSON frames over localhost TCP.

Every node endpoint is an asyncio TCP server bound to an ephemeral port on
the loopback interface.  Senders keep one pooled connection per directed
``(source, destination)`` link — mirroring the paper's point-to-point
network — and write ``4-byte length + canonical JSON`` frames
(:mod:`repro.net.codec`).  Both ends of a connection are
:class:`asyncio.Protocol` callbacks, not stream tasks: the receiving end
feeds each chunk the socket hands it to an incremental
:class:`~repro.net.codec.FrameDecoder` inside ``data_received`` and sends
every completed frame down the transport's delivery path there and then
(the node's inbox, or the filters a stack put in front of it), so a
received frame costs no task; the sending end writes into the socket and
waits only when the socket has buffered more than it will take.

Failure model: connect and write errors surface as
:class:`~repro.exceptions.TransportError`; the failed connection is evicted
from the pool so the next send on the link (a supervisor's re-dial, or the
next round's frame) opens a fresh socket.  A frame that is never delivered
(peer crashed, link unhealed) is simply *absent* at the receiver, which
resolves it to ``V_d`` at the round deadline — the same
degradation path as every other fault in the model.  A connection leaves
the transport's bookkeeping when it is lost, so reconnects under chaos
leave nothing behind.

A frame that *arrives* but does not decode (corrupted in flight — what the
chaos layer injects through :meth:`TcpTransport.send_corrupted`) poisons
only its own connection: frames completed before the poison are still
delivered, the desynchronized stream is abandoned, the event is counted in
:attr:`NetMetrics.decode_errors <repro.net.metrics.NetMetrics>`, and the
endpoint keeps serving every other connection.  The sender's next frame on
that link opens a fresh socket, so one corrupt frame costs exactly one
frame — never the node.

The transport is frame-kind agnostic: DATA, MARK and BATCH frames share
the same length-prefixed pipe, and under the batched wire path the pooled
per-link connection carries exactly one BATCH frame per round, written
in the runner's one send order (link order, as on every transport).
Losing one (connection reset, poisoned stream) loses that link's round
wholesale: data and marker together, detected by deadline.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

from repro.exceptions import TransportError
from repro.net.codec import Frame, FrameDecoder, pack_frame
from repro.net.metrics import NetMetrics
from repro.net.transport import LocalBus

NodeId = Hashable

#: Grace period for a closing socket to finish its handshake.
_CLOSE_TIMEOUT = 1.0


class _Connection(asyncio.Protocol):
    """One socket of a :class:`TcpTransport`, held in its bookkeeping
    from ``connection_made`` until ``connection_lost``."""

    def __init__(self, tcp: "TcpTransport") -> None:
        self.tcp = tcp
        self.transport: Optional[asyncio.Transport] = None
        #: Done once the socket is closed and released.
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.tcp._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.tcp._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)


class _Inbound(_Connection):
    """The receiving end of a connection to *node*'s endpoint."""

    def __init__(self, tcp: "TcpTransport", node: NodeId) -> None:
        super().__init__(tcp)
        self.node = node
        self.decoder = FrameDecoder()

    def data_received(self, data: bytes) -> None:
        # Tolerant decode: frames completed before a poisoned one are
        # still delivered; the poison itself abandons only this
        # connection (the stream cannot resync), the endpoint stays alive
        # for every other connection.
        frames, error = self.decoder.feed_tolerant(data)
        sink, node = self.tcp._sink, self.node
        for frame in frames:
            sink(node, frame)
        if error is not None:
            self.tcp.metrics.record_decode_error()
            self.transport.close()


class _Outbound(_Connection):
    """The sending end of one pooled link."""

    def __init__(self, tcp: "TcpTransport") -> None:
        super().__init__(tcp)
        self._resumed: Optional[asyncio.Future] = None

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_exception(ConnectionResetError("connection lost"))

    def write(self, payload: bytes) -> Optional[asyncio.Future]:
        """Hand *payload* to the socket.  Returns what to await before the
        next write — ``None`` unless the transport now buffers more than
        its high-water mark — and raises :class:`ConnectionResetError` on
        a connection that is gone."""
        self.transport.write(payload)
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        return self._resumed


class TcpTransport(LocalBus):
    """Length-prefixed JSON frames over real localhost sockets.

    The node inboxes are :class:`~repro.net.transport.LocalBus`'s; a frame
    lands on the delivery path when a node's endpoint decodes it off a
    socket.
    """

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1") -> None:
        super().__init__()
        self.host = host
        self.metrics = NetMetrics(transport=self.name)
        self._servers: Dict[NodeId, asyncio.AbstractServer] = {}
        self._addresses: Dict[NodeId, Tuple[str, int]] = {}
        self._writers: Dict[Tuple[NodeId, NodeId], _Outbound] = {}
        #: Every open socket, either end: a connection leaves when lost.
        self._connections: Set[_Connection] = set()
        #: Links that have successfully carried at least one frame; a
        #: re-dial on such a link is a *reconnect* (first dials are not).
        self._ever_connected: set = set()

    def attach_metrics(self, metrics: NetMetrics) -> None:
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self, nodes: Sequence[NodeId]) -> None:
        await super().open(nodes)
        for node in nodes:
            await self._serve(node)

    async def _serve(self, node: NodeId) -> None:
        """Listen for *node* on a fresh ephemeral port."""
        server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self, node), host=self.host, port=0
        )
        self._servers[node] = server
        sockname = server.sockets[0].getsockname()
        self._addresses[node] = (sockname[0], sockname[1])

    async def close(self) -> None:
        connections = list(self._connections)
        self._writers = {}
        for connection in connections:
            connection.transport.close()
        for server in self._servers.values():
            server.close()
        # Without waiting for every socket to finish closing, repeated
        # open/close cycles — exactly what chaos soak campaigns do — leak
        # half-closed sockets and emit ResourceWarnings at GC time.
        if connections:
            await asyncio.wait(
                [connection.closed for connection in connections],
                timeout=_CLOSE_TIMEOUT,
            )
        for server in self._servers.values():
            await server.wait_closed()
        self._servers = {}
        self._addresses = {}
        await super().close()

    def _retire(self, link: Tuple[NodeId, NodeId]) -> None:
        """Evict *link*'s pooled writer; its socket closes cleanly."""
        writer = self._writers.pop(link, None)
        if writer is not None:
            writer.transport.close()

    # ------------------------------------------------------------------
    # Fault surface (chaos / operators)
    # ------------------------------------------------------------------
    def reset_connections(self, node: Optional[NodeId] = None) -> int:
        """Hard-reset pooled connections; returns how many were severed.

        Aborts (no FIN handshake, no flush — the closest asyncio gets to a
        peer yanking the cable) every pooled writer touching *node*, or
        every pooled writer when *node* is ``None``.  The endpoints stay
        up: the next frame on each severed link re-dials, which is exactly
        the reconnect path the supervision layer must heal.
        """
        links = [
            link
            for link in list(self._writers)
            if node is None or node in link
        ]
        for link in links:
            self._writers.pop(link).transport.abort()
        return len(links)

    async def restart_endpoint(self, node: NodeId) -> None:
        """Crash-restart *node*'s endpoint: new server, new port, emptied inbox.

        Models a process restart: the listening socket dies (in-flight
        connections with it), queued-but-unconsumed frames are lost, and
        the node comes back on a *fresh* ephemeral port.  Senders resolve
        the address per-send, so their next frame dials the new endpoint.
        The inbox is emptied in place, so a ``recv`` already waiting on
        *node* hears the frames that arrive after the restart.
        """
        server = self._servers.pop(node, None)
        if server is None:
            raise TransportError(f"no endpoint for node {node!r}")
        server.close()
        await server.wait_closed()
        for link in [l for l in list(self._writers) if node in l]:
            self._retire(link)
        await super().restart_endpoint(node)
        await self._serve(node)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def address_of(self, node: NodeId) -> Tuple[str, int]:
        """The (host, port) a node's endpoint listens on (for diagnostics)."""
        try:
            return self._addresses[node]
        except KeyError:
            raise TransportError(f"no endpoint for node {node!r}") from None

    async def _write(
        self, link: Tuple[NodeId, NodeId], address: Tuple[str, int], payload: bytes
    ) -> None:
        """Write *payload* on the pooled connection for *link*."""
        writer = self._writers.get(link)
        try:
            if writer is None or writer.transport.is_closing():
                _, writer = await asyncio.get_running_loop().create_connection(
                    lambda: _Outbound(self), *address
                )
                self._writers[link] = writer
                if link in self._ever_connected:
                    self.metrics.record_reconnect(*link)
            resumed = writer.write(payload)
            if resumed is not None:
                # Shared by every send waiting on this link: one cancelled
                # send must not cancel it for the others.
                await asyncio.shield(resumed)
            self._ever_connected.add(link)
        except (ConnectionError, OSError) as exc:
            # A reset connection costs this link one frame, never the
            # runner: the stale socket is evicted, the error is metered as
            # a link loss, and the caller decides: a supervisor re-dials,
            # the runner lets the receiver resolve the absence to V_d at
            # the round deadline — assumption (b).
            self._retire(link)
            self.metrics.record_link_error(*link)
            raise TransportError(
                f"send {link[0]!r} -> {link[1]!r} failed: {exc}"
            ) from exc

    def _address_for(self, frame: Frame) -> Tuple[str, int]:
        address = self._addresses.get(frame.destination)
        if address is None:
            raise TransportError(
                f"no endpoint for destination {frame.destination!r}"
            )
        return address

    async def send(self, frame: Frame) -> int:
        address = self._address_for(frame)
        payload = pack_frame(frame)
        await self._write((frame.source, frame.destination), address, payload)
        return len(payload)

    async def send_corrupted(self, frame: Frame, rng: random.Random) -> int:
        """Put a genuinely mangled rendition of *frame* on the wire.

        A few body bytes (positions drawn from *rng*) are overwritten with
        ``0xFF`` — never a valid UTF-8 byte, so the receiver's decode fails
        deterministically.  The length prefix is left intact: the receiver
        reads exactly one frame's worth of garbage, counts the decode
        error and abandons that connection.  The pooled writer is retired
        immediately afterwards so the *next* frame on this link opens a
        fresh socket instead of racing the server-side abandonment —
        keeping the blast radius (and therefore same-seed determinism) at
        exactly one lost frame.
        """
        address = self._address_for(frame)
        payload = bytearray(pack_frame(frame))
        body_len = len(payload) - 4
        for _ in range(1 + rng.randrange(3)):
            payload[4 + rng.randrange(body_len)] = 0xFF
        link = (frame.source, frame.destination)
        await self._write(link, address, bytes(payload))
        self._retire(link)
        return len(payload)

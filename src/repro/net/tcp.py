"""Real-socket transport: length-prefixed JSON frames over localhost TCP.

Every node endpoint is an asyncio TCP server bound to an ephemeral port on
the loopback interface.  Senders keep one pooled connection per directed
``(source, destination)`` link — mirroring the paper's point-to-point
network — and write ``4-byte length + canonical JSON`` frames
(:mod:`repro.net.codec`).  The server side feeds an incremental
:class:`~repro.net.codec.FrameDecoder` and routes completed frames into the
destination node's inbox queue.

Failure model: connect and write errors surface as
:class:`~repro.exceptions.TransportError`; the failed connection is evicted
from the pool so the next send on the link (a supervisor's re-dial, or the
next round's frame) opens a fresh socket.  A frame that is never delivered
(peer crashed, link unhealed) is simply *absent* at the receiver, which
resolves it to ``V_d`` at the round deadline — the same
degradation path as every other fault in the model.

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
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import TransportError
from repro.net.codec import Frame, FrameDecoder, pack_frame
from repro.net.metrics import NetMetrics
from repro.net.transport import Transport, drain, take_nowait

NodeId = Hashable

#: Grace period for a closing socket to finish its handshake.
_CLOSE_TIMEOUT = 1.0


class TcpTransport(Transport):
    """Length-prefixed JSON frames over real localhost sockets."""

    name = "tcp"

    def __init__(self, host: str = "127.0.0.1") -> None:
        self.host = host
        self.metrics = NetMetrics(transport=self.name)
        self._servers: Dict[NodeId, asyncio.AbstractServer] = {}
        self._addresses: Dict[NodeId, Tuple[str, int]] = {}
        self._inboxes: Dict[NodeId, "asyncio.Queue[Frame]"] = {}
        self._writers: Dict[Tuple[NodeId, NodeId], asyncio.StreamWriter] = {}
        self._closing: List[asyncio.StreamWriter] = []
        self._reader_tasks: List[asyncio.Task] = []
        #: Links that have successfully carried at least one frame; a
        #: re-dial on such a link is a *reconnect* (first dials are not).
        self._ever_connected: set = set()

    def attach_metrics(self, metrics: NetMetrics) -> None:
        self.metrics = metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self, nodes: Sequence[NodeId]) -> None:
        for node in nodes:
            self._inboxes[node] = asyncio.Queue()
            server = await asyncio.start_server(
                self._make_handler(node), host=self.host, port=0
            )
            self._servers[node] = server
            sockname = server.sockets[0].getsockname()
            self._addresses[node] = (sockname[0], sockname[1])

    def _make_handler(self, node: NodeId):
        async def handle(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            if task is not None:
                self._reader_tasks.append(task)
            decoder = FrameDecoder()
            try:
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    # Tolerant decode: frames completed before a poisoned
                    # one are still delivered; the poison itself abandons
                    # only this connection (the stream cannot resync), the
                    # endpoint stays alive for every other connection.
                    frames, error = decoder.feed_tolerant(chunk)
                    for frame in frames:
                        self._inboxes[node].put_nowait(frame)
                    if error is not None:
                        self.metrics.record_decode_error()
                        break
            except asyncio.CancelledError:
                pass
            except (ConnectionError, OSError):
                # A peer that resets mid-read costs this connection only;
                # the endpoint keeps serving, the sender re-dials.
                pass
            finally:
                writer.close()

        return handle

    async def close(self) -> None:
        writers = list(self._writers.values()) + self._closing
        self._writers = {}
        self._closing = []
        for writer in writers:
            writer.close()
        for writer in writers:
            await self._await_closed(writer)
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            await server.wait_closed()
        self._servers = {}
        for task in self._reader_tasks:
            if not task.done():
                task.cancel()
        self._reader_tasks = []
        self._inboxes = {}
        self._addresses = {}

    @staticmethod
    async def _await_closed(writer: asyncio.StreamWriter) -> None:
        """Wait (briefly) for a closed socket to finish, never raising.

        Without the ``wait_closed`` await, repeated open/close cycles —
        exactly what chaos soak campaigns do — leak half-closed sockets
        and emit ``ResourceWarning``s at garbage collection time.
        """
        try:
            await asyncio.wait_for(writer.wait_closed(), timeout=_CLOSE_TIMEOUT)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass

    def _retire(self, writer: asyncio.StreamWriter) -> None:
        """Evict a writer from service but keep it for a clean close."""
        writer.close()
        self._closing.append(writer)

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
            writer = self._writers.pop(link)
            transport = writer.transport
            if transport is not None:
                transport.abort()
            self._closing.append(writer)
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
            self._retire(self._writers.pop(link))
        drain(self._inboxes[node])
        replacement = await asyncio.start_server(
            self._make_handler(node), host=self.host, port=0
        )
        self._servers[node] = replacement
        sockname = replacement.sockets[0].getsockname()
        self._addresses[node] = (sockname[0], sockname[1])

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
            if writer is None or writer.is_closing():
                _, writer = await asyncio.open_connection(*address)
                self._writers[link] = writer
                if link in self._ever_connected:
                    self.metrics.record_reconnect(*link)
            writer.write(payload)
            await writer.drain()
            self._ever_connected.add(link)
        except (ConnectionError, OSError) as exc:
            # A reset connection costs this link one frame, never the
            # runner: the stale socket is evicted, the error is metered as
            # a link loss, and the caller decides: a supervisor re-dials,
            # the runner lets the receiver resolve the absence to V_d at
            # the round deadline — assumption (b).
            stale = self._writers.pop(link, None)
            if stale is not None:
                self._retire(stale)
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
        writer = self._writers.pop(link, None)
        if writer is not None:
            self._retire(writer)
        return len(payload)

    async def recv(self, node: NodeId) -> Frame:
        inbox = self._inboxes.get(node)
        if inbox is None:
            raise TransportError(f"no endpoint for node {node!r}")
        return await inbox.get()

    def recv_nowait(self, node: NodeId) -> Optional[Frame]:
        return take_nowait(self._inboxes, node)

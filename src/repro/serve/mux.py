"""Instance multiplexing: many agreement instances on one transport.

A service node set keeps *one* transport pair per directed link — one TCP
connection, one LocalBus inbox per node — and runs arbitrarily many
concurrent agreement instances over it.  Two pieces make that work:

* :class:`InstanceMux` owns the shared transport.  It opens it once with
  the full node set and takes over its delivery path
  (:meth:`~repro.net.transport.Transport.deliver_to`): every frame that
  lands — in the bus's ``send``, in a TCP endpoint's socket callback,
  after the supervisor's dedup — is filed, in the same call, into the
  inbox of the channel its ``instance`` field names (the version-2
  envelope of :mod:`repro.net.codec`).  No task and no second queue stand
  between a frame's arrival and its runner's inbox; only a transport that
  implements nothing but ``recv`` gets reader tasks, from the
  :class:`~repro.net.transport.Transport` default.  An instance's channel
  is made when the gateway asks for it — before the instance's first
  send, since one process hosts every node of an instance — and released
  when the instance's runner closes it.  The mux only routes: a frame for an
  instance it does not hold (a decided instance's straggler, or an
  unversioned frame) is counted *stray*
  (:meth:`~repro.net.metrics.NetMetrics.record_stray_frame`), not
  delivered.  An instance id is single-use while the gateway holds its
  instance (:meth:`~repro.serve.gateway.AgreementService.submit`); once
  the gateway has evicted it a client may submit it again, so a
  channel also refuses a frame stamped (``sent_at``) before it was
  opened: a straggler of the id's earlier instance is stray too.

* :class:`InstanceChannel` is the per-instance face of the mux: a full
  :class:`~repro.net.transport.LocalBus` whose inboxes the mux's demux
  fills, so an unmodified :class:`~repro.net.runner.AsyncRoundRunner`
  drives its instance over it.  ``send`` forwards the frames its runner
  stamped with the instance id, ``recv`` (and ``recv_nowait``) reads the
  bus's inboxes, and ``close`` releases the instance (the runner's
  ``finally: transport.close()`` is the GC hook) — the *shared* transport
  stays open until the mux itself stops.

Layering with chaos: wrap the shared transport in a
:class:`~repro.net.chaos.transport.ChaosTransport` *below* the mux, so
one seeded adversary perturbs the real multiplexed frame stream and its
:class:`~repro.net.chaos.accounting.ChaosLog` attributes every absence to
the instance whose frame it hit (``afflicted_for``), letting each
instance assert its own D.1–D.4 tier.
"""

from __future__ import annotations

import asyncio
import math
from typing import Dict, Hashable, Optional, Sequence

from repro.exceptions import TransportError
from repro.net.codec import Frame
from repro.net.metrics import NetMetrics
from repro.net.transport import Inbox, LocalBus, Transport

NodeId = Hashable
InstanceId = Hashable


class InstanceMux:
    """Demultiplexes one shared transport into per-instance channels."""

    def __init__(
        self,
        transport: Transport,
        nodes: Sequence[NodeId],
        metrics: Optional[NetMetrics] = None,
    ) -> None:
        self.transport = transport
        self.nodes: tuple = tuple(nodes)
        #: Aggregate recorder, attached to the shared stack exactly once:
        #: transport-level events (decode errors, chaos, stray frames) land
        #: here, published on its bus and traced on its tracer; each
        #: instance's runner keeps its own per-instance :class:`NetMetrics`
        #: on its channel.
        self.metrics = (
            metrics if metrics is not None
            else NetMetrics(transport=transport.name)
        )
        transport.attach_metrics(self.metrics)
        self._channels: Dict[InstanceId, "InstanceChannel"] = {}
        #: The reader tasks of a transport that only implements ``recv``.
        self._readers: Optional["asyncio.Future"] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the shared transport and file what it delivers."""
        if self._started:
            return
        await self.transport.open(list(self.nodes))
        self._readers = self.transport.deliver_to(self._demux, self.nodes)
        self._started = True

    async def stop(self) -> None:
        """Release every channel and close the shared transport."""
        readers, self._readers = self._readers, None
        if readers is not None:
            readers.cancel()
            await asyncio.gather(readers, return_exceptions=True)
        for instance_id in list(self._channels):
            self.release(instance_id)
        if self._started:
            await self.transport.close()
            self._started = False

    async def restart_node(self, node: NodeId) -> None:
        """Crash-restart one node's endpoint mid-campaign.

        The same path a chaos-scheduled restart takes:
        :meth:`~repro.net.transport.Transport.restart_endpoint` loses the
        frames queued for *node* and keeps its endpoint, so the frames
        that land after it are filed as before.  In-flight instances see
        the restarted node go absent for the frames it lost (assumption
        (b): recorded absence, ``V_d``, not a hang); later instances see
        nothing.
        """
        if node not in self.nodes:
            raise TransportError(
                f"no endpoint for node {node!r} (mux nodes: {self.nodes!r})"
            )
        await self.transport.restart_endpoint(node)
        self.metrics.record_endpoint_restart()

    # ------------------------------------------------------------------
    # Instance registry
    # ------------------------------------------------------------------
    def channel(
        self, instance_id: InstanceId, opened_at: float = -math.inf
    ) -> "InstanceChannel":
        """The Transport-shaped view of *instance_id*: made, with its
        inboxes, the first time it is asked for; the same one after.
        A frame stamped before *opened_at* (the loop time the gateway
        opens the instance at) is not filed into it."""
        if instance_id is None:
            raise TransportError("instance id must not be None on a mux")
        channel = self._channels.get(instance_id)
        if channel is None:
            channel = InstanceChannel(self, instance_id, opened_at)
            self._channels[instance_id] = channel
        return channel

    def release(self, instance_id: InstanceId) -> None:
        """Retire a finished instance (idempotent): its channel drops its
        inboxes — a read waiting on one raises
        :class:`~repro.exceptions.TransportError` — and a frame that names
        it from now on is stray."""
        channel = self._channels.pop(instance_id, None)
        if channel is not None:
            channel.drop_endpoints()

    @property
    def live_instances(self) -> int:
        return len(self._channels)

    # ------------------------------------------------------------------
    # Demux
    # ------------------------------------------------------------------
    def _demux(self, node: NodeId, frame: Frame) -> None:
        """File *frame*, just landed for *node*, into its instance's inbox.

        The last filter on the shared transport's delivery path.  A frame
        for an instance this mux does not hold — a decided instance's
        straggler, or an unversioned (v1) frame that cannot name one — is
        counted stray and dropped; so is one stamped before its channel
        opened (a straggler of an earlier instance under a reused id).
        """
        channel = self._channels.get(frame.instance)
        tracer = self.metrics.tracer
        if channel is None or frame.sent_at < channel.opened_at:
            self.metrics.record_stray_frame()
            if tracer is not None:
                tracer.instant(
                    "demux",
                    "mux",
                    parent=frame.trace,
                    round_no=frame.round_no,
                    source=frame.source,
                    destination=node,
                    stray=True,
                )
            return
        if tracer is not None:
            tracer.instant(
                "demux",
                "mux",
                parent=frame.trace,
                instance=frame.instance,
                round_no=frame.round_no,
                source=frame.source,
                destination=node,
            )
        channel.deliver(node, frame)


class InstanceChannel(LocalBus):
    """One instance's Transport-shaped view of a shared, muxed transport.

    Hand this to an :class:`~repro.net.runner.AsyncRoundRunner` as its
    transport.  Its inboxes, one :class:`~repro.net.transport.Inbox` per
    mux node, are the bus's, filled by the mux's demux rather than by
    ``send`` and read by the runner alone (its drain, or the one collect
    waiting on a node): ``open`` checks the run's nodes instead of
    opening the shared transport again, ``send`` forwards to the shared
    transport (the runner stamped its instance id on the frame), and
    ``close`` releases the instance on the mux — a read still waiting
    raises :class:`~repro.exceptions.TransportError` — while the shared
    transport itself outlives every channel.
    """

    def __init__(
        self,
        mux: InstanceMux,
        instance_id: InstanceId,
        opened_at: float = -math.inf,
    ) -> None:
        super().__init__()
        self.mux = mux
        self.instance_id = instance_id
        #: Frames stamped before this loop time belong to an earlier
        #: instance under the same id: the demux counts them stray.
        self.opened_at = opened_at
        self.metrics: Optional[NetMetrics] = None
        self._inboxes = {node: Inbox() for node in mux.nodes}

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.mux.transport.name

    def attach_metrics(self, metrics: NetMetrics) -> None:
        # Deliberately NOT forwarded: the mux attached the aggregate
        # recorder (with the service's bus and tracer) to the shared stack
        # once; re-attaching every instance's recorder would make
        # transport-level counts land on whichever instance attached last.
        # The per-instance recorder is kept for the channel's own
        # bookkeeping (runner-side counters reach it directly).
        self.metrics = metrics

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        # Round boundaries are per-instance but the timing seam belongs to
        # the shared wire: forward so a round-aware shared transport (the
        # schedule explorer's) sees every instance's deadlines.
        self.mux.transport.round_opened(round_no, deadline, instance)

    async def open(self, nodes: Sequence[NodeId]) -> None:
        unknown = [n for n in nodes if n not in self.mux.nodes]
        if unknown:
            raise TransportError(
                f"instance {self.instance_id!r} names nodes {unknown!r} "
                f"outside the service node set {self.mux.nodes!r}"
            )

    async def send(self, frame: Frame) -> int:
        return await self.mux.transport.send(frame)

    async def restart_endpoint(self, node: NodeId) -> None:
        # A node's endpoint belongs to the shared transport
        # (InstanceMux.restart_node); one instance's view cannot restart it.
        await Transport.restart_endpoint(self, node)

    async def close(self) -> None:
        self.mux.release(self.instance_id)

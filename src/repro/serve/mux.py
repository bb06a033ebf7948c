"""Instance multiplexing: many agreement instances on one transport.

A service node set keeps *one* transport pair per directed link — one TCP
connection, one LocalBus inbox per node — and runs arbitrarily many
concurrent agreement instances over it.  Two pieces make that work:

* :class:`InstanceMux` owns the shared transport.  It opens it once with
  the full node set and runs one *pump* task per node: an endless
  ``recv`` loop that routes every inbound frame to the per-instance queue
  its ``instance`` field names (the version-2 envelope of
  :mod:`repro.net.codec`).  Instance queues are created lazily — on the
  client's submit, or on the first frame to arrive for a not-yet-local
  instance — and garbage-collected when the instance's runner closes its
  channel.  Frames for retired or unknown instances are counted as
  *stray* (:meth:`~repro.net.metrics.NetMetrics.record_stray_frame`), not
  delivered: a decided instance's duplicate stragglers must not leak into
  a later instance that happens to reuse a queue slot.

* :class:`InstanceChannel` is the per-instance face of the mux: a full
  :class:`~repro.net.transport.Transport`, so an unmodified
  :class:`~repro.net.runner.AsyncRoundRunner` drives its instance over it.
  ``send`` stamps the instance id onto every outgoing frame, ``recv``
  reads the instance's demultiplexed queue, and ``close`` releases the
  instance (the runner's ``finally: transport.close()`` is the GC hook) —
  the *shared* transport stays open until the mux itself stops.

Layering with chaos: wrap the shared transport in a
:class:`~repro.net.chaos.transport.ChaosTransport` *below* the mux, so
one seeded adversary perturbs the real multiplexed frame stream and its
:class:`~repro.net.chaos.accounting.ChaosLog` attributes every absence to
the instance whose frame it hit (``afflicted_for``), letting each
instance assert its own D.1–D.4 tier.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.exceptions import TransportError
from repro.net.codec import Frame
from repro.net.metrics import NetMetrics
from repro.net.transport import Transport

NodeId = Hashable
InstanceId = Hashable


class InstanceMux:
    """Demultiplexes one shared transport into per-instance channels."""

    def __init__(
        self,
        transport: Transport,
        nodes: Sequence[NodeId],
        metrics: Optional[NetMetrics] = None,
        tracer=None,
    ) -> None:
        self.transport = transport
        self.nodes: tuple = tuple(nodes)
        #: Aggregate recorder: transport-level events (decode errors,
        #: chaos, stray frames) land here; each instance's runner keeps its
        #: own per-instance :class:`NetMetrics` on its channel.
        self.metrics = metrics or NetMetrics(transport=transport.name)
        if not self.metrics.transport:
            self.metrics.transport = transport.name
        transport.attach_metrics(self.metrics)
        #: Shared span tracer: attached to the shared stack exactly once
        #: (like the aggregate recorder); per-instance runners carry the
        #: same tracer, so channel re-attachment must not re-wire it.
        self.tracer = tracer
        if tracer is not None:
            transport.attach_tracer(tracer)
        self._queues: Dict[InstanceId, Dict[NodeId, "asyncio.Queue[Frame]"]] = {}
        self._retired: Set[InstanceId] = set()
        self._pumps: List["asyncio.Task"] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the shared transport and start one pump task per node."""
        if self._started:
            return
        await self.transport.open(list(self.nodes))
        self._pumps = [
            asyncio.ensure_future(self._pump(node)) for node in self.nodes
        ]
        self._started = True

    async def stop(self) -> None:
        """Cancel the pumps and close the shared transport."""
        for task in self._pumps:
            task.cancel()
        if self._pumps:
            await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps = []
        if self._started:
            await self.transport.close()
            self._started = False

    async def restart_node(self, node: NodeId) -> None:
        """Crash-restart one node's endpoint mid-campaign.

        Tears the node's runner side down for real — its pump task is
        cancelled, its transport endpoint is rebuilt
        (:meth:`~repro.net.transport.Transport.restart_endpoint`, which
        drops anything queued for it) — then re-attaches: a fresh pump
        resumes draining the rebuilt endpoint into the same per-instance
        channel queues, so in-flight instances keep their channels and
        simply see the restarted node go absent for the frames it lost
        (assumption (b): recorded absence, ``V_d``, not a hang).
        """
        if node not in self.nodes:
            raise TransportError(
                f"no endpoint for node {node!r} (mux nodes: {self.nodes!r})"
            )
        if not self._started:
            raise TransportError("mux is not running; nothing to restart")
        idx = self.nodes.index(node)
        pump = self._pumps[idx]
        pump.cancel()
        await asyncio.gather(pump, return_exceptions=True)
        await self.transport.restart_endpoint(node)
        self._pumps[idx] = asyncio.ensure_future(self._pump(node))
        self.metrics.record_endpoint_restart()

    # ------------------------------------------------------------------
    # Instance registry
    # ------------------------------------------------------------------
    def register(self, instance_id: InstanceId) -> None:
        """Provision the per-node inbound queues for *instance_id*.

        Idempotent while the instance is live; registering a *retired* id
        is an error — instance ids name one agreement each, and reviving
        one would let a GC'd instance's stray frames leak into a new run.
        """
        if instance_id is None:
            raise TransportError("instance id must not be None on a mux")
        if instance_id in self._retired:
            raise TransportError(
                f"instance {instance_id!r} already ran and was retired; "
                f"instance ids are single-use"
            )
        if instance_id not in self._queues:
            self._queues[instance_id] = {
                node: asyncio.Queue() for node in self.nodes
            }

    def release(self, instance_id: InstanceId) -> None:
        """Garbage-collect a finished instance's queues (idempotent)."""
        self._queues.pop(instance_id, None)
        self._retired.add(instance_id)

    def channel(self, instance_id: InstanceId) -> "InstanceChannel":
        """Register *instance_id* and return its Transport-shaped view."""
        self.register(instance_id)
        return InstanceChannel(self, instance_id)

    @property
    def live_instances(self) -> int:
        return len(self._queues)

    def queue_for(
        self, instance_id: InstanceId, node: NodeId
    ) -> "asyncio.Queue[Frame]":
        queues = self._queues.get(instance_id)
        if queues is None:
            raise TransportError(
                f"instance {instance_id!r} is not registered on this mux"
            )
        queue = queues.get(node)
        if queue is None:
            raise TransportError(
                f"no endpoint for node {node!r} (mux nodes: {self.nodes!r})"
            )
        return queue

    # ------------------------------------------------------------------
    # Demux pumps
    # ------------------------------------------------------------------
    async def _pump(self, node: NodeId) -> None:
        """Route every frame the transport delivers to *node*.

        The pump is the *sole* consumer of ``transport.recv(node)``;
        per-instance runners read their channel queues instead.  A frame
        whose instance is unknown here is either (a) the first frame of an
        instance a peer started before our client submitted it — register
        and deliver — or (b) a straggler for a retired instance, or an
        unversioned (v1) frame that cannot name an instance at all — both
        counted stray and dropped.
        """
        while True:
            try:
                frame = await self.transport.recv(node)
            except asyncio.CancelledError:
                raise
            except TransportError:
                return  # transport torn down under us; mux is stopping
            instance_id = frame.instance
            if instance_id is None or instance_id in self._retired:
                self.metrics.record_stray_frame()
                if self.tracer is not None:
                    self.tracer.instant(
                        "demux",
                        "mux",
                        parent=frame.trace,
                        round_no=frame.round_no,
                        source=frame.source,
                        destination=node,
                        stray=True,
                    )
                continue
            if self.tracer is not None:
                self.tracer.instant(
                    "demux",
                    "mux",
                    parent=frame.trace,
                    instance=instance_id,
                    round_no=frame.round_no,
                    source=frame.source,
                    destination=node,
                )
            if instance_id not in self._queues:
                self.register(instance_id)
                self.metrics.publish(
                    "instance_attached",
                    instance=str(instance_id),
                    node=str(node),
                )
            self._queues[instance_id][node].put_nowait(frame)


class InstanceChannel(Transport):
    """One instance's Transport-shaped view of a shared, muxed transport.

    Hand this to an :class:`~repro.net.runner.AsyncRoundRunner` as its
    transport: ``open`` (re-)registers the instance instead of opening the
    shared transport again, ``send`` stamps the instance id and forwards,
    ``recv`` reads the instance's demultiplexed queue, and ``close``
    releases the instance on the mux — the shared transport itself outlives
    every channel.
    """

    def __init__(self, mux: InstanceMux, instance_id: InstanceId) -> None:
        self.mux = mux
        self.instance_id = instance_id
        self.metrics: Optional[NetMetrics] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.mux.transport.name

    def attach_metrics(self, metrics: NetMetrics) -> None:
        # Deliberately NOT forwarded: the mux attached the aggregate
        # recorder to the shared stack once; re-attaching every instance's
        # recorder would make transport-level counts land on whichever
        # instance attached last.  The per-instance recorder is kept for
        # the channel's own bookkeeping (runner-side counters reach it
        # directly).
        self.metrics = metrics

    def attach_tracer(self, tracer) -> None:
        # Deliberately NOT forwarded, same reason as attach_metrics: the
        # mux attached the shared tracer to the shared stack exactly once.
        # Every instance's runner carries the same tracer object anyway,
        # so there is nothing to rewire per channel.
        pass

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        # Round boundaries are per-instance but the timing seam belongs to
        # the shared wire: forward so a round-aware shared transport (the
        # schedule explorer's) sees every instance's deadlines.  The
        # runner already stamps its instance id; default it here for
        # direct-driven channels.
        self.mux.transport.round_opened(
            round_no, deadline, self.instance_id if instance is None else instance
        )

    async def open(self, nodes: Sequence[NodeId]) -> None:
        unknown = [n for n in nodes if n not in self.mux.nodes]
        if unknown:
            raise TransportError(
                f"instance {self.instance_id!r} names nodes {unknown!r} "
                f"outside the service node set {self.mux.nodes!r}"
            )
        self.mux.register(self.instance_id)

    async def send(self, frame: Frame) -> int:
        if frame.instance != self.instance_id:
            frame = replace(frame, instance=self.instance_id)
        return await self.mux.transport.send(frame)

    async def recv(self, node: NodeId) -> Frame:
        return await self.mux.queue_for(self.instance_id, node).get()

    async def close(self) -> None:
        self.mux.release(self.instance_id)

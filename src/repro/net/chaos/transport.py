"""ChaosTransport: seeded network misbehaviour around any Transport.

Wraps a :class:`~repro.net.transport.Transport` (LocalBus, TcpTransport,
or any other) and applies a :class:`~repro.net.chaos.policy.ChaosPolicy`
to every frame that passes through ``send``.  Everything it does is
recorded twice: in :class:`~repro.net.metrics.NetMetrics` (counters, for
operators) and in a :class:`~repro.net.chaos.accounting.ChaosLog` (events
with fault attribution, for the campaign verdict machinery).

Determinism is the design constraint everything here bends around — a
failed soak trial must replay exactly from ``(config, seed)``:

* every random draw comes from one injected ``random.Random``; the
  wall clock and the global RNG are never consulted;
* the runner sends frames sequentially from one coroutine, so the draw
  sequence is a pure function of the (deterministic) frame sequence;
* injected latency sleeps *inline* in ``send`` rather than spawning a
  delivery task: ordering relative to the round's end-of-round markers is
  preserved by construction instead of by racing the event loop.  A delay
  that would end at or after its frame's round deadline (the runner
  announces each one through ``round_opened``) is a drop charged to the
  frame's source — neither slept nor sent — so the deadline never cuts
  off the sends queued behind it and ``f_eff`` counts the absence;
* reordering holds a frame back per link and releases it when the next
  frame on that link passes (delayed redelivery, swapped order).  A MARK
  on the link flushes the held frame first, so a reordered frame never
  silently misses its round; if the marker itself was severed by a
  partition or crash, the held frame is flushed on the next round's first
  frame instead — arriving late, counted, and resolved to ``V_d`` exactly
  like any other absence;
* corruption delegates to the transport's ``send_corrupted`` seam: real
  mangled bytes over TCP (the receiver's decode fails and abandons that
  one connection), silent loss over object-passing transports — the same
  observable outcome, absence.

DATA frames face the full policy; MARK frames are touched only by
partitions and crashes, whose entire point is making receivers ride out
the deadline.  BATCH frames (the batched wire path: one frame per
directed link per round) face drop, corruption, latency and duplication
draws *per batch frame*, with absence accounting charging the batch's
source node exactly as it would a DATA frame's.  The reorder hold does
not apply to batches: with one frame per link per round there is nothing
in-round to reorder against, and holding a batch to the next round would
manufacture absence from an event classified as benign, unsoundly
shrinking ``f_eff``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.net.chaos.accounting import ChaosEvent, ChaosLog
from repro.net.chaos.policy import ChaosPolicy
from repro.net.codec import BATCH, DATA, Frame
from repro.net.transport import Transport, TransportLayer

NodeId = Hashable

Link = Tuple[NodeId, NodeId]


class ChaosTransport(TransportLayer):
    """Applies a seeded ChaosPolicy to every frame crossing a transport."""

    layer = "chaos"

    def __init__(
        self,
        inner: Transport,
        policy: ChaosPolicy,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(inner)
        self.policy = policy
        self.rng = rng if rng is not None else random.Random(policy.seed)
        self.log = ChaosLog()
        self._held: Dict[Link, Frame] = {}
        self._round_seen = 0
        #: ``(instance, round) -> deadline`` for rounds still open.
        self._deadlines: Dict[Tuple[object, int], float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def open(self, nodes: Sequence[NodeId]) -> None:
        self._held = {}
        self._round_seen = 0
        self._deadlines = {}
        await self.inner.open(nodes)

    def round_opened(
        self, round_no: int, deadline: float, instance=None
    ) -> None:
        # A round whose deadline has passed sends nothing more, so only
        # open rounds are kept: the map stays as small as the live set.
        now = asyncio.get_running_loop().time()
        self._deadlines = {
            key: until for key, until in self._deadlines.items() if until > now
        }
        self._deadlines[(instance, round_no)] = deadline
        super().round_opened(round_no, deadline, instance)

    async def close(self) -> None:
        # A frame still held at teardown was never delivered: account it
        # as a drop so f_eff stays a sound upper bound.  (Unreachable in a
        # full run — markers flush every held frame — but an early-decided
        # run may break out of the round loop first.)
        for link, frame in sorted(self._held.items(), key=lambda kv: str(kv[0])):
            self._record("drop", frame, afflicted=frozenset({frame.source}))
        self._held = {}
        await self.inner.close()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    async def send(self, frame: Frame) -> int:
        await self._advance_round(frame.round_no)
        link = (frame.source, frame.destination)

        # Scheduled faults sever DATA and MARK alike: a partitioned or
        # crashed endpoint is silent, not just lossy — receivers must ride
        # out the round deadline to detect it (assumption (b) for real).
        partition = self.policy.severed_by(frame.round_no, *link)
        if partition is not None:
            self._record("partition", frame, afflicted=partition.afflicted)
            return 0
        crash = self.policy.crashed(frame.round_no, frame.source) or (
            self.policy.crashed(frame.round_no, frame.destination)
        )
        if crash is not None:
            self._record("crash", frame, afflicted=frozenset({crash.node}))
            return 0

        if frame.kind not in (DATA, BATCH):
            await self._flush_link(link)
            return await self.inner.send(frame)
        return await self._send_drawn(frame, link)

    async def _send_drawn(self, frame: Frame, link: Link) -> int:
        """Drop/corrupt/reorder/latency/dup draws, one set per frame.

        The reorder draw is taken for DATA only (see the module docstring).
        Losing a batch loses the link's whole round — data and marker —
        so the receiver detects it through genuine deadline expiry; the
        accounting still charges one source node, the same attribution a
        lost DATA frame gets.
        """
        policy, rng = self.policy, self.rng
        if policy.drop_probability and rng.random() < policy.drop_probability:
            self._record("drop", frame, afflicted=frozenset({frame.source}))
            return 0
        if policy.corrupt_probability and rng.random() < policy.corrupt_probability:
            self._record("corrupt", frame, afflicted=frozenset({frame.source}))
            return await self.inner.send_corrupted(frame, rng)
        if (
            frame.kind == DATA
            and policy.reorder_probability
            and rng.random() < policy.reorder_probability
        ):
            self._record("reorder", frame)
            held = self._held.get(link)
            if held is None:
                self._held[link] = frame
                return 0
            # Slot occupied: deliver the new frame first, then the held
            # one — a swap, i.e. bounded delayed redelivery.
            del self._held[link]
            nbytes = await self._deliver(frame)
            await self.inner.send(held)
            return nbytes
        if policy.latency_probability and rng.random() < policy.latency_probability:
            low, high = policy.latency
            delay = low + (high - low) * rng.random()
            deadline = self._deadlines.get((frame.instance, frame.round_no))
            if (
                deadline is not None
                and asyncio.get_running_loop().time() + delay >= deadline
            ):
                # The frame would land after its round closed: an absence,
                # charged now rather than cut off by the runner's deadline.
                self._record("drop", frame, afflicted=frozenset({frame.source}))
                return 0
            self._record("delay", frame)
            if delay > 0:
                await asyncio.sleep(delay)
        return await self._deliver(frame)

    async def _deliver(self, frame: Frame) -> int:
        """Forward a frame, flushing any older held frame on its link, and
        possibly duplicating it."""
        await self._flush_link((frame.source, frame.destination))
        nbytes = await self.inner.send(frame)
        policy = self.policy
        if (
            policy.duplicate_probability
            and self.rng.random() < policy.duplicate_probability
        ):
            self._record("dup", frame)
            await self.inner.send(frame)
        return nbytes

    async def _flush_link(self, link: Link) -> None:
        """Release the held frame on *link*, if any (oldest first)."""
        held = self._held.pop(link, None)
        if held is not None:
            await self.inner.send(held)

    async def _advance_round(self, round_no: int) -> None:
        """Round bookkeeping: flush stragglers, count scheduled-fault rounds.

        Held frames from a previous round surface here — their round has
        closed, so the receiver counts them late and has already
        substituted ``V_d``; the hold is upgraded to a charged drop to
        keep the accounting sound.
        """
        if round_no <= self._round_seen:
            return
        stale = [
            (link, frame)
            for link, frame in self._held.items()
            if frame.round_no < round_no
        ]
        for link, frame in sorted(stale, key=lambda kv: str(kv[0])):
            del self._held[link]
            self._record("drop", frame, afflicted=frozenset({frame.source}))
            await self.inner.send(frame)
        for r in range(self._round_seen + 1, round_no + 1):
            if self.policy.partition_active(r):
                self.metrics.record_partition_round()
            for crash in self.policy.crashes:
                if crash.at_round == r:
                    self.metrics.record_crash_event()
            # Scheduled transport faults execute at round onset, *between*
            # the previous round's collection and this round's first send
            # — awaited inline before the next send, so the healing path
            # (re-dial, fresh endpoint) runs to completion before the next
            # frame and the reconnect count is seed-deterministic.
            if r in self.policy.link_resets:
                self.inner.reset_connections()
                self.metrics.record_link_reset()
                if self.tracer is not None:
                    self.tracer.instant("chaos_reset", "chaos", round_no=r)
                self.log.record(
                    ChaosEvent(
                        kind="reset",
                        round_no=r,
                        source=None,
                        destination=None,
                    )
                )
            for restart in self.policy.restarts:
                if restart.at_round == r:
                    await self.inner.restart_endpoint(restart.node)
                    self.metrics.record_endpoint_restart()
                    if self.tracer is not None:
                        self.tracer.instant(
                            "chaos_restart",
                            "chaos",
                            round_no=r,
                            source=restart.node,
                            charged=str(restart.node),
                        )
                    self.log.record(
                        ChaosEvent(
                            kind="restart",
                            round_no=r,
                            source=restart.node,
                            destination=None,
                            afflicted=frozenset({restart.node}),
                        )
                    )
        self._round_seen = round_no

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self, kind: str, frame: Frame, afflicted: frozenset = frozenset()
    ) -> None:
        self.log.record(
            ChaosEvent(
                kind=kind,
                round_no=frame.round_no,
                source=frame.source,
                destination=frame.destination,
                afflicted=afflicted,
                instance=frame.instance,
            )
        )
        if self.tracer is not None:
            # Charge the injection to the causing node(s) on the span the
            # frame's sender opened — the wire trace context — so the
            # causal chain reads sender -> injection -> observed absence.
            charged = sorted(str(n) for n in afflicted) or [str(frame.source)]
            self.tracer.event_on(
                frame.trace,
                f"chaos_{kind}",
                charged=",".join(charged),
                round=frame.round_no,
                link=f"{frame.source}->{frame.destination}",
            )
        if kind in ("drop", "partition", "crash"):
            self.metrics.record_chaos_drop(frame.round_no)
        elif kind == "dup":
            self.metrics.record_chaos_dup(frame.round_no)
        elif kind == "reorder":
            self.metrics.record_chaos_reorder(frame.round_no)
        elif kind == "corrupt":
            self.metrics.record_chaos_corruption(frame.round_no)

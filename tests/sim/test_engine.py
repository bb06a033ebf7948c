"""Unit tests for the synchronous round engine."""

import hashlib

import pytest

from repro.core.protocol import ProtocolSession
from repro.core.spec import DegradableSpec
from repro.exceptions import SimulationError
from repro.sim.engine import FaultInjector, SynchronousEngine
from repro.sim.messages import Message
from repro.sim.network import Topology
from repro.sim.node import Process
from repro.sim.trace import EventKind
from tests.sim.processes import IdleProcess, RecordingProcess, ScriptedProcess

NODES = ["a", "b", "c"]


def make_engine(processes, injectors=None, topology=None):
    return SynchronousEngine(
        topology or Topology.complete(NODES), processes, injectors
    )


class TestSetup:
    def test_duplicate_process_rejected(self):
        with pytest.raises(SimulationError):
            make_engine([IdleProcess("a"), IdleProcess("a"), IdleProcess("b")])

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            make_engine([IdleProcess("zzz")])

    def test_negative_rounds_rejected(self):
        engine = make_engine([IdleProcess(n) for n in NODES])
        with pytest.raises(SimulationError):
            engine.run(-1)


class TestDelivery:
    def test_next_round_delivery(self):
        sender = ScriptedProcess("a", {1: [("b", "hello")]})
        receiver = RecordingProcess("b")
        engine = make_engine([sender, receiver, IdleProcess("c")])
        engine.step_round()
        assert receiver.received == []  # sent in round 1, not yet delivered
        engine.step_round()
        assert [m.payload for m in receiver.received] == ["hello"]
        assert receiver.received[0].source == "a"

    def test_broadcast_pattern(self):
        sender = ScriptedProcess("a", {1: [("b", "x"), ("c", "x")]})
        b, c = RecordingProcess("b"), RecordingProcess("c")
        engine = make_engine([sender, b, c])
        engine.run(2)
        assert [m.payload for m in b.received] == ["x"]
        assert [m.payload for m in c.received] == ["x"]

    def test_no_link_no_delivery(self):
        topo = Topology.from_edges(NODES, [("a", "b")])
        sender = ScriptedProcess("a", {1: [("b", "x"), ("c", "x")]})
        b, c = RecordingProcess("b"), RecordingProcess("c")
        engine = SynchronousEngine(topo, [sender, b, c])
        engine.run(2)
        assert len(b.received) == 1
        assert len(c.received) == 0
        dropped = engine.trace.filter(lambda e: e.kind is EventKind.DROPPED)
        assert len(dropped) == 1 and dropped[0].note == "no link"

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_missing_link_drops_with_and_without_a_trace(self, record_trace):
        # The engine reads the link set once at construction; with no trace
        # and no injector it also skips _dispatch — the link check must not
        # go with it.
        topo = Topology.from_edges(NODES, [("a", "b"), ("b", "c")])
        sender = ScriptedProcess("a", {1: [("b", "x"), ("c", "x")]})
        b, c = RecordingProcess("b"), RecordingProcess("c")
        engine = SynchronousEngine(topo, [sender, b, c], record_trace=record_trace)
        engine.run(2)
        assert [m.payload for m in b.received] == ["x"]
        assert c.received == []
        assert engine.emitted == 2
        if record_trace:
            dropped = engine.trace.filter(lambda e: e.kind is EventKind.DROPPED)
            assert [(e.destination, e.note) for e in dropped] == [("c", "no link")]

    def test_self_message_rejected(self):
        sender = ScriptedProcess("a", {1: [("a", "x")]})
        engine = make_engine([sender, IdleProcess("b"), IdleProcess("c")])
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_unknown_destination_rejected(self):
        sender = ScriptedProcess("a", {1: [("zzz", "x")]})
        engine = make_engine([sender, IdleProcess("b"), IdleProcess("c")])
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_source_forgery_rejected(self):
        class Forger(Process):
            def step(self, round_no, inbox):
                return [Message(source="b", destination="c", payload=1)]

        engine = make_engine([Forger("a"), IdleProcess("b"), IdleProcess("c")])
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_deterministic_inbox_order(self):
        s1 = ScriptedProcess("a", {1: [("c", "from-a")]})
        s2 = ScriptedProcess("b", {1: [("c", "from-b")]})
        receiver = RecordingProcess("c")
        engine = make_engine([s1, s2, receiver])
        engine.run(2)
        assert [m.payload for m in receiver.received] == ["from-a", "from-b"]


class TestRunLoop:
    def test_stops_when_all_decided(self):
        class DecideImmediately(Process):
            def step(self, round_no, inbox):
                self.decide(round_no)
                return []

        engine = make_engine([DecideImmediately(n) for n in NODES])
        executed = engine.run(100)
        assert executed == 1
        assert engine.all_decided()
        assert engine.decisions() == {n: 1 for n in NODES}

    def test_respects_max_rounds(self):
        engine = make_engine([IdleProcess(n) for n in NODES])
        assert engine.run(5) == 5
        assert engine.current_round == 5

    def test_in_flight_messages_delay_stop(self):
        class SendThenDecide(ScriptedProcess):
            def step(self, round_no, inbox):
                out = super().step(round_no, inbox)
                self.decide("done")
                return out

        sender = SendThenDecide("a", {1: [("b", "x")]})
        b, c = RecordingProcess("b"), RecordingProcess("c")
        b.decide("done")
        c.decide("done")
        engine = make_engine([sender, b, c])
        executed = engine.run(10)
        # Round 1 sends (and decides); the in-flight message forces round 2
        # so 'b' still receives it before the engine stops.
        assert executed == 2
        assert len(b.received) == 1


class TestInjectors:
    def test_drop_all(self):
        class DropAll(FaultInjector):
            def intercept(self, round_no, message):
                return []

        sender = ScriptedProcess("a", {1: [("b", "x")]})
        receiver = RecordingProcess("b")
        engine = make_engine(
            [sender, receiver, IdleProcess("c")], injectors=[DropAll()]
        )
        engine.run(3)
        assert receiver.received == []
        assert engine.trace.count(EventKind.DROPPED) == 1

    def test_corruption_recorded(self):
        class Corrupt(FaultInjector):
            def intercept(self, round_no, message):
                return [message.with_payload("corrupted")]

        sender = ScriptedProcess("a", {1: [("b", "x")]})
        receiver = RecordingProcess("b")
        engine = make_engine(
            [sender, receiver, IdleProcess("c")], injectors=[Corrupt()]
        )
        engine.run(3)
        assert [m.payload for m in receiver.received] == ["corrupted"]
        assert engine.trace.count(EventKind.CORRUPTED) == 1

    def test_injector_forgery_rejected(self):
        class ForgeSource(FaultInjector):
            def intercept(self, round_no, message):
                return [
                    Message(source="b", destination=message.destination, payload=1)
                ]

        sender = ScriptedProcess("a", {1: [("c", "x")]})
        engine = make_engine(
            [sender, IdleProcess("b"), IdleProcess("c")],
            injectors=[ForgeSource()],
        )
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_injectors_chain_in_order(self):
        class AppendTag(FaultInjector):
            def __init__(self, tag):
                self.tag = tag

            def intercept(self, round_no, message):
                return [message.with_payload(message.payload + self.tag)]

        sender = ScriptedProcess("a", {1: [("b", "x")]})
        receiver = RecordingProcess("b")
        engine = make_engine(
            [sender, receiver, IdleProcess("c")],
            injectors=[AppendTag("-1"), AppendTag("-2")],
        )
        engine.run(3)
        assert [m.payload for m in receiver.received] == ["x-1-2"]


class TestTraceToggle:
    def test_no_trace_mode(self):
        engine = SynchronousEngine(
            Topology.complete(NODES),
            [IdleProcess(n) for n in NODES],
            record_trace=False,
        )
        engine.run(2)
        assert engine.trace is None


class TestUntracedUninjectedRounds:
    """No trace and no injector: ``step_round`` skips ``_dispatch`` and
    enqueues directly — every structural guard must still fire."""

    def untraced(self, processes):
        return SynchronousEngine(
            Topology.complete(NODES), processes, record_trace=False
        )

    def test_delivers_and_counts(self):
        sender = ScriptedProcess("a", {1: [("b", "x"), ("c", "y")]})
        b, c = RecordingProcess("b"), RecordingProcess("c")
        engine = self.untraced([sender, b, c])
        engine.run(2)
        assert [m.payload for m in b.received] == ["x"]
        assert [m.payload for m in c.received] == ["y"]
        assert engine.emitted == 2

    @pytest.mark.parametrize("destination", ["a", "zzz"])
    def test_self_and_unknown_destination_rejected(self, destination):
        sender = ScriptedProcess("a", {1: [(destination, "x")]})
        engine = self.untraced([sender, IdleProcess("b"), IdleProcess("c")])
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_source_forgery_rejected(self):
        class Forger(Process):
            def step(self, round_no, inbox):
                return [Message(source="b", destination="c", payload=1)]

        engine = self.untraced([Forger("a"), IdleProcess("b"), IdleProcess("c")])
        with pytest.raises(SimulationError):
            engine.run(1)


class TestTracedUninjectedRounds:
    """A trace but no injector: each message is admitted right after its
    ``sent`` line, so a ``no link`` drop follows the send it drops."""

    def ring_run(self):
        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = ["S", "p1", "p2", "p3", "p4"]
        session = ProtocolSession.byz(spec, nodes, "S", "attack")
        engine = SynchronousEngine(Topology.ring(nodes), session.processes)
        session.attach_trace(engine.trace)
        engine.run(session.total_rounds)
        return engine.trace

    def test_each_no_link_drop_follows_its_send(self):
        events = self.ring_run().events
        drops = [i for i, e in enumerate(events) if e.kind is EventKind.DROPPED]
        assert len(drops) == 8
        for i in drops:
            sent, dropped = events[i - 1], events[i]
            assert sent.kind is EventKind.SENT and dropped.note == "no link"
            assert (sent.round_no, sent.source, sent.destination, sent.payload) == (
                dropped.round_no, dropped.source, dropped.destination, dropped.payload
            )

    def test_trace_bytes_are_pinned(self):
        # sha256 of the JSONL written when every message went through the
        # injector loop: recording all sends first would change it.
        text = self.ring_run().to_jsonl()
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "a636e8c7b536d4523a02ada8ed9535fa3b24d1d25a1687377b44a1b9e2b89ebd"
        )


class TestPassThroughInjectors:
    """A replacement that *is* the intercepted message skips the forge and
    corruption checks; anything else is still checked."""

    def test_pass_through_records_no_corruption(self):
        sender = ScriptedProcess("a", {1: [("b", "x")]})
        receiver = RecordingProcess("b")
        engine = make_engine(
            [sender, receiver, IdleProcess("c")],
            injectors=[FaultInjector(), FaultInjector()],
        )
        engine.run(2)
        assert [m.payload for m in receiver.received] == ["x"]
        assert engine.trace.count(EventKind.CORRUPTED) == 0
        assert engine.trace.count(EventKind.DROPPED) == 0

    def test_forgery_after_a_pass_through_is_still_rejected(self):
        class ForgeSource(FaultInjector):
            def intercept(self, round_no, message):
                return [message, Message("b", message.destination, "forged")]

        sender = ScriptedProcess("a", {1: [("c", "x")]})
        engine = SynchronousEngine(
            Topology.complete(NODES),
            [sender, IdleProcess("b"), IdleProcess("c")],
            [FaultInjector(), ForgeSource()],
            record_trace=False,
        )
        with pytest.raises(SimulationError):
            engine.run(1)

    def test_equal_copy_is_checked_but_not_corruption(self):
        class Copy(FaultInjector):
            def intercept(self, round_no, message):
                return [message.with_payload(message.payload)]

        sender = ScriptedProcess("a", {1: [("b", "x")]})
        receiver = RecordingProcess("b")
        engine = make_engine([sender, receiver, IdleProcess("c")], injectors=[Copy()])
        engine.run(2)
        assert [m.payload for m in receiver.received] == ["x"]
        assert engine.trace.count(EventKind.CORRUPTED) == 0


class TestEmit:
    """``emit`` is the protocol half of a round both runtimes call: inboxes
    in, ``(survivors, dropped)`` out, every structural check inside."""

    class DropToSelf(FaultInjector):
        def intercept(self, round_no, message):
            return [] if message.destination == message.source else [message]

    def test_returns_survivors_and_the_fully_dropped_count(self):
        sender = ScriptedProcess("a", {1: [("a", "x"), ("b", "y"), ("c", "z")]})
        b = RecordingProcess("b")
        engine = make_engine(
            [sender, b, IdleProcess("c")], injectors=[self.DropToSelf()]
        )
        survivors, dropped = engine.emit(1, {n: [] for n in NODES})
        assert [(m.destination, m.payload) for m in survivors] == [
            ("b", "y"), ("c", "z"),
        ]
        assert (dropped, engine.emitted) == (1, 3)
        # The caller owns delivery: handing the survivors back is round 2.
        engine.emit(2, {"a": [], "b": survivors[:1], "c": []})
        assert [m.payload for m in b.received] == ["y"]
        delivered = engine.trace.of_kind(EventKind.DELIVERED)
        assert [(e.round_no, e.destination) for e in delivered] == [(2, "b")]

    def test_destination_checks_run_on_survivors_after_injection(self):
        # A self-addressed message an injector drops never reaches the
        # check; one that survives does.
        for injectors, raises in (([self.DropToSelf()], False), ([], True)):
            sender = ScriptedProcess("a", {1: [("a", "x")]})
            engine = make_engine(
                [sender, IdleProcess("b"), IdleProcess("c")], injectors=injectors
            )
            if raises:
                with pytest.raises(SimulationError, match="message itself"):
                    engine.run(1)
            else:
                assert engine.run(1) == 1

    def test_topology_node_without_a_process_is_an_unknown_destination(self):
        sender = ScriptedProcess("a", {1: [("c", "x")]})
        engine = SynchronousEngine(
            Topology.complete(NODES), [sender, IdleProcess("b")], record_trace=False
        )
        with pytest.raises(SimulationError, match="unknown node 'c'"):
            engine.run(1)

    def test_a_self_loop_in_the_graph_does_not_admit_a_self_message(self):
        import networkx as nx

        graph = nx.complete_graph(NODES)
        graph.add_edge("a", "a")
        sender = ScriptedProcess("a", {1: [("a", "x")]})
        engine = SynchronousEngine(
            Topology(graph), [sender, IdleProcess("b"), IdleProcess("c")]
        )
        with pytest.raises(SimulationError, match="message itself"):
            engine.run(1)

"""Envelope compat for the optional trace-context field (``"tc"``).

The tracing tentpole added :attr:`Frame.trace` to the wire envelope.
Compatibility contract, same as ``instance``/``seq`` before it: a traced
frame carries a ``"tc"`` key and round-trips losslessly; an untraced
frame encodes **byte-identically** to the pre-tracing wire format (the
goldens below), and legacy bytes with no ``"tc"`` key decode with
``trace=None`` — so mixed traced/untraced fleets interoperate and every
determinism fingerprint that hashes frame bytes is unaffected by the
field's existence.
"""

import random

import pytest

from repro.net.codec import (
    BATCH,
    DATA,
    MARK,
    Frame,
    decode_frame,
    encode_frame,
)
from repro.sim.messages import Message, RelayPayload


def _message():
    return Message(
        source="p1",
        destination="p2",
        payload=RelayPayload(path=("S", "p1"), value="engage"),
        round_sent=2,
        tag="byz",
    )


class TestTraceContextRoundTrip:
    @pytest.mark.parametrize("kind,extra", [
        (MARK, {}),
        (DATA, {"message": None}),  # replaced below
        ("ping", {}),
        ("pong", {}),
    ])
    def test_trace_round_trips_on_every_kind(self, kind, extra):
        if kind == DATA:
            extra = {"message": _message()}
        frame = Frame(
            kind=kind, round_no=2, source="p1", destination="p2",
            trace="ab12cd34ef56ab78", **extra,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.trace == "ab12cd34ef56ab78"

    def test_trace_round_trips_on_batch(self):
        frame = Frame(
            kind=BATCH, round_no=1, source="S", destination="p1",
            messages=(_message(),), mark=True, trace="0123456789abcdef",
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.trace == "0123456789abcdef"

    def test_trace_composes_with_instance_and_seq(self):
        frame = Frame(
            kind=MARK, round_no=2, source="S", destination="p1",
            instance="i0001", seq=9, trace="feedface00000000",
        )
        body = encode_frame(frame)
        assert b'"tc":' in body
        decoded = decode_frame(body)
        assert decoded == frame

    def test_fuzzed_trace_fields_round_trip(self):
        # Seeded sweep over the whole optional-field lattice: every
        # combination of trace/instance/seq present or absent must
        # round-trip losslessly on every frame kind.
        rng = random.Random(0)
        kinds = [MARK, DATA, BATCH, "ping", "pong"]
        for case in range(200):
            kind = rng.choice(kinds)
            trace = (
                "%016x" % rng.getrandbits(64) if rng.random() < 0.7 else None
            )
            frame = Frame(
                kind=kind,
                round_no=rng.randrange(0, 5),
                source=rng.choice(["S", "p1", "p2"]),
                destination=rng.choice(["p3", "p4"]),
                message=_message() if kind == DATA else None,
                messages=(_message(),) if kind == BATCH else (),
                mark=kind == BATCH and rng.random() < 0.5,
                instance=(
                    f"i{rng.randrange(100):04d}"
                    if rng.random() < 0.5 else None
                ),
                seq=rng.randrange(1000) if rng.random() < 0.5 else None,
                trace=trace,
            )
            decoded = decode_frame(encode_frame(frame))
            assert decoded == frame, f"case {case}"
            assert decoded.trace == trace, f"case {case}"


class TestUntracedBytesUnchanged:
    """Untraced frames must encode exactly as the pre-tracing wire did."""

    GOLDENS = {
        MARK: (
            Frame(kind=MARK, round_no=3, source="S", destination="p4"),
            b'{"at":0.0,"dst":"p4","kind":"mark","round":3,"src":"S"}',
        ),
        DATA: (
            Frame(kind=DATA, round_no=2, source="p1", destination="p2",
                  message=_message(), sent_at=1.25),
            b'{"at":1.25,"dst":"p2","kind":"data","msg":{"destination":'
            b'"p2","payload":{"__repro__":"relay","path":["S","p1"],'
            b'"value":"engage"},"round_sent":2,"source":"p1","tag":"byz"},'
            b'"round":2,"src":"p1"}',
        ),
        BATCH: (
            Frame(kind=BATCH, round_no=1, source="S", destination="p1",
                  messages=(_message(),), mark=True),
            b'{"at":0.0,"dst":"p1","kind":"batch","mark":true,"msgs":'
            b'[{"destination":"p2","payload":{"__repro__":"relay","path":'
            b'["S","p1"],"value":"engage"},"round_sent":2,"source":"p1",'
            b'"tag":"byz"}],"round":1,"src":"S"}',
        ),
        "ping": (
            Frame(kind="ping", round_no=0, source="S", destination="p1",
                  sent_at=2.5),
            b'{"at":2.5,"dst":"p1","kind":"ping","round":0,"src":"S"}',
        ),
        "pong": (
            Frame(kind="pong", round_no=0, source="p1", destination="S",
                  sent_at=2.5),
            b'{"at":2.5,"dst":"S","kind":"pong","round":0,"src":"p1"}',
        ),
    }

    @pytest.mark.parametrize("kind", sorted(GOLDENS))
    def test_untraced_frame_is_byte_identical_to_golden(self, kind):
        frame, golden = self.GOLDENS[kind]
        body = encode_frame(frame)
        assert b'"tc":' not in body
        assert body == golden

    def test_untraced_v2_seq_frame_is_byte_identical_to_golden(self):
        frame = Frame(kind=MARK, round_no=2, source="S", destination="p1",
                      instance="i0001", seq=9)
        body = encode_frame(frame)
        assert b'"tc":' not in body
        assert body == (
            b'{"at":0.0,"dst":"p1","iid":"i0001","kind":"mark","round":2,'
            b'"seq":9,"src":"S","v":2}'
        )

    def test_legacy_bytes_decode_with_no_trace(self):
        legacy = b'{"at":0.0,"dst":"p1","kind":"mark","round":1,"src":"S"}'
        assert decode_frame(legacy).trace is None

    def test_legacy_v2_bytes_decode_with_no_trace(self):
        legacy = (
            b'{"at":0.0,"dst":"p1","iid":"i0001","kind":"mark","round":2,'
            b'"seq":9,"src":"S","v":2}'
        )
        frame = decode_frame(legacy)
        assert frame.trace is None
        assert frame.instance == "i0001"
        assert frame.seq == 9

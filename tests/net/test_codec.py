"""Wire-format tests: tagged JSON values, frames, incremental decoding."""

import dataclasses
import json
from typing import Hashable, Optional, Tuple

import pytest

from repro.core.values import DEFAULT
from repro.exceptions import TransportError
from repro.net.codec import (
    BATCH,
    DATA,
    MARK,
    Frame,
    FrameDecoder,
    decode_frame,
    encode_frame,
    from_jsonable,
    pack_frame,
    to_jsonable,
)
from repro.sim.messages import Message, RelayPayload
from tests import twins


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            "alpha",
            42,
            3.5,
            True,
            None,
            ["a", 1, None],
            ("S", "p1", "p2"),
            (("nested",), "tuple"),
            {"key": "value", "n": 1},
            {("tuple", "key"): "value"},
            {"__repro__": "user data, not a tag"},
        ],
    )
    def test_round_trip(self, value):
        assert from_jsonable(to_jsonable(value)) == value

    def test_default_round_trips_to_same_singleton(self):
        decoded = from_jsonable(to_jsonable(DEFAULT))
        assert decoded is DEFAULT

    def test_default_nested_in_payload(self):
        payload = RelayPayload(path=("S", "p1"), value=DEFAULT)
        decoded = from_jsonable(to_jsonable(payload))
        assert decoded == payload
        assert decoded.value is DEFAULT
        assert isinstance(decoded.path, tuple)

    def test_unencodable_value_raises(self):
        with pytest.raises(TransportError):
            to_jsonable(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(TransportError):
            from_jsonable({"__repro__": "no-such-tag"})


class TestFrameRoundTrip:
    def _data_frame(self):
        message = Message(
            source="p1",
            destination="p2",
            payload=RelayPayload(path=("S", "p1"), value="engage"),
            round_sent=2,
            tag="byz",
        )
        return Frame(
            kind=DATA, round_no=2, source="p1", destination="p2",
            message=message, sent_at=1.25,
        )

    def test_data_frame(self):
        frame = self._data_frame()
        assert decode_frame(encode_frame(frame)) == frame

    def test_mark_frame(self):
        frame = Frame(kind=MARK, round_no=3, source="S", destination="p4")
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoding_is_canonical(self):
        frame = self._data_frame()
        assert encode_frame(frame) == encode_frame(frame)

    def test_data_frame_without_message_raises(self):
        with pytest.raises(TransportError):
            encode_frame(Frame(kind=DATA, round_no=1, source="a", destination="b"))

    def test_malformed_bytes_raise(self):
        with pytest.raises(TransportError):
            decode_frame(b"\xff not json")

    def _batch_messages(self):
        return tuple(
            Message(
                source="p1",
                destination="p2",
                payload=RelayPayload(path=("S", path_tail, "p1"), value=value),
                round_sent=2,
                tag="byz",
            )
            for path_tail, value in (("p3", "engage"), ("p4", DEFAULT))
        )

    def test_batch_frame_round_trip(self):
        frame = Frame(
            kind=BATCH, round_no=2, source="p1", destination="p2",
            messages=self._batch_messages(), mark=True, sent_at=2.5,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert isinstance(decoded.messages, tuple)
        assert decoded.mark is True
        # V_d inside a batched payload survives as the same singleton.
        assert decoded.messages[1].payload.value is DEFAULT

    def test_empty_batch_round_trip(self):
        # A mark-only batch: no data, just the end-of-round signal.
        frame = Frame(
            kind=BATCH, round_no=1, source="S", destination="p1",
            messages=(), mark=True,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.messages == ()

    def test_markless_batch_round_trip(self):
        frame = Frame(
            kind=BATCH, round_no=1, source="S", destination="p1",
            messages=self._batch_messages()[:1], mark=False,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.mark is False
        assert len(decoded.messages) == 1

    def test_batch_preserves_message_order(self):
        messages = self._batch_messages()
        frame = Frame(
            kind=BATCH, round_no=2, source="p1", destination="p2",
            messages=messages, mark=True,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.messages == messages

    def test_unbatched_wire_encoding_unchanged_by_batch_fields(self):
        # DATA and MARK frames ignore the batch-only fields entirely:
        # their byte encodings carry no "msgs"/"mark" keys, so a batched
        # sender stays wire-compatible with an unbatched receiver.
        data = self._data_frame()
        assert b'"msgs":' not in encode_frame(data)
        assert b'"mark":' not in encode_frame(data)
        mark = Frame(kind=MARK, round_no=3, source="S", destination="p4")
        assert b'"msgs":' not in encode_frame(mark)
        assert b'"mark":' not in encode_frame(mark)

    def test_batch_decoder_interleaves_with_plain_frames(self):
        frames = [
            Frame(kind=MARK, round_no=1, source="S", destination="p1"),
            Frame(
                kind=BATCH, round_no=1, source="S", destination="p1",
                messages=self._batch_messages(), mark=True,
            ),
            self._data_frame(),
        ]
        blob = b"".join(pack_frame(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames


class TestFrameDecoder:
    def test_single_frame(self):
        frame = Frame(kind=MARK, round_no=1, source="S", destination="p1")
        decoder = FrameDecoder()
        assert decoder.feed(pack_frame(frame)) == [frame]
        assert decoder.pending_bytes == 0

    def test_split_across_chunks(self):
        frame = Frame(kind=MARK, round_no=1, source="S", destination="p1")
        packed = pack_frame(frame)
        decoder = FrameDecoder()
        for byte in packed[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(packed[-1:]) == [frame]

    def test_multiple_frames_in_one_chunk(self):
        frames = [
            Frame(kind=MARK, round_no=r, source="S", destination="p1")
            for r in range(1, 4)
        ]
        blob = b"".join(pack_frame(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_oversized_length_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(b"\xff\xff\xff\xff")

    def _marks(self, count):
        return [
            Frame(kind=MARK, round_no=r, source="S", destination=f"p{r % 7}")
            for r in range(count)
        ]

    @pytest.mark.parametrize("chunk", [1, 3, 4, 5, 64, 1000, 10**6])
    def test_any_chunking_yields_the_same_frames_and_tail(self, chunk):
        frames = self._marks(200)
        tail = pack_frame(frames[0])[:-3]
        blob = b"".join(pack_frame(f) for f in frames) + tail
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(blob), chunk):
            got, error = decoder.feed_tolerant(blob[start : start + chunk])
            assert error is None
            decoded.extend(got)
        assert decoded == frames
        assert decoder.pending_bytes == len(tail)
        assert decoder.feed(pack_frame(frames[0])[-3:]) == [frames[0]]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize(
        "poison",
        [b"\x00\x00\x00\x02\xff\xff", b"\x00\x00\x00\x01{", b"\xff\xff\xff\xff"],
        ids=["undecodable", "not-json", "oversized"],
    )
    def test_poison_mid_chunk_keeps_earlier_frames_and_clears(self, poison):
        frames = self._marks(5)
        good = b"".join(pack_frame(f) for f in frames)
        decoder = FrameDecoder()
        got, error = decoder.feed_tolerant(good + poison + good)
        assert got == frames
        assert isinstance(error, TransportError)
        assert decoder.pending_bytes == 0

    def test_a_body_that_is_json_but_no_frame_is_consumed_and_loud(self):
        frame = self._marks(1)[0]
        blob = pack_frame(frame) + b"\x00\x00\x00\x02{}" + b"\x00\x00"
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(blob)
        # Like any poison: the stream is abandoned, the buffer cleared ...
        assert decoder.pending_bytes == 0
        # ... and the tolerant feed keeps the frame before it.
        got, error = FrameDecoder().feed_tolerant(blob)
        assert got == [frame] and isinstance(error, TransportError)


class TestEnvelopeVersions:
    """Version-2 (multiplexed) envelope vs. the legacy unversioned wire."""

    def _message(self):
        return Message(
            source="p1",
            destination="p2",
            payload=RelayPayload(path=("S", "p1"), value="engage"),
            round_sent=2,
            tag="byz:i0001",
        )

    def test_instance_frame_round_trips(self):
        frame = Frame(
            kind=DATA, round_no=2, source="p1", destination="p2",
            message=self._message(), sent_at=1.0, instance="i0001",
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.instance == "i0001"

    def test_instance_batch_round_trips(self):
        frame = Frame(
            kind=BATCH, round_no=1, source="S", destination="p1",
            messages=(self._message(),), mark=True, instance="i0042",
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded == frame
        assert decoded.instance == "i0042"

    def test_v2_envelope_declares_version(self):
        frame = Frame(
            kind=MARK, round_no=1, source="S", destination="p1",
            instance="i0001",
        )
        body = encode_frame(frame)
        assert b'"v":2' in body
        assert b'"iid":' in body

    def test_legacy_encoding_is_byte_identical(self):
        # A single-instance frame must encode exactly as it did before the
        # envelope gained a version: no "v", no "iid", same sorted keys.
        frame = Frame(kind=MARK, round_no=3, source="S", destination="p4")
        body = encode_frame(frame)
        assert b'"v":' not in body
        assert b'"iid":' not in body
        assert body == (
            b'{"at":0.0,"dst":"p4","kind":"mark","round":3,"src":"S"}'
        )

    def test_legacy_frame_decodes_with_no_instance(self):
        # Bytes written by a pre-versioning peer (no "v" key at all) must
        # still decode, and land as the default instance.
        legacy = b'{"at":0.0,"dst":"p1","kind":"mark","round":1,"src":"S"}'
        frame = decode_frame(legacy)
        assert frame.kind == MARK
        assert frame.instance is None

    def test_unknown_envelope_version_rejected(self):
        body = b'{"at":0.0,"dst":"p1","kind":"mark","round":1,"src":"S","v":3}'
        with pytest.raises(TransportError, match="envelope version"):
            decode_frame(body)

    def test_non_string_instance_id_round_trips(self):
        frame = Frame(
            kind=MARK, round_no=1, source="S", destination="p1",
            instance=("shard", 7),
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.instance == ("shard", 7)


class TestSupervisionFrames:
    """A pre-change peer's probe frames and the per-link sequence stamp."""

    def test_ping_pong_round_trip(self):
        ping = Frame(kind="ping", round_no=0, source="S", destination="p1",
                     sent_at=2.5)
        pong = Frame(kind="pong", round_no=0, source="p1", destination="S",
                     sent_at=2.5)
        assert decode_frame(encode_frame(ping)) == ping
        assert decode_frame(encode_frame(pong)) == pong

    def test_seq_round_trips(self):
        frame = Frame(kind=MARK, round_no=2, source="S", destination="p1",
                      seq=41)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.seq == 41
        assert decoded == frame

    def test_unstamped_frame_encoding_unchanged_by_seq_field(self):
        # seq=None frames (every unsupervised run) must stay byte-identical
        # to the pre-supervision wire format: no "seq" key at all.
        frame = Frame(kind=MARK, round_no=3, source="S", destination="p4")
        body = encode_frame(frame)
        assert b'"seq":' not in body
        assert body == (
            b'{"at":0.0,"dst":"p4","kind":"mark","round":3,"src":"S"}'
        )

    def test_legacy_frame_decodes_with_no_seq(self):
        legacy = b'{"at":0.0,"dst":"p1","kind":"mark","round":1,"src":"S"}'
        assert decode_frame(legacy).seq is None


@dataclasses.dataclass(frozen=True)
class PlainFrame:
    """Frame as the generated frozen dataclass would build it."""

    kind: str
    round_no: int
    source: Hashable
    destination: Hashable
    message: Optional[Message] = None
    sent_at: float = 0.0
    messages: Tuple[Message, ...] = dataclasses.field(default=())
    mark: bool = False
    instance: Optional[Hashable] = None
    seq: Optional[int] = None
    trace: Optional[str] = None


_MSG = Message("S", "p1", RelayPayload(("S",), "engage"), 1, "byz")
_MSGS = (_MSG, Message("S", "p1", RelayPayload(("S", "p2"), DEFAULT), 1, "byz"))

FRAME_SAMPLES = [
    (MARK, 1, "S", "p1"),
    (DATA, 2, "p1", "p2", _MSG, 3.25),
    (BATCH, 3, "S", "p1", None, 1.5, _MSGS, True),
    (BATCH, 1, "S", "p1", None, 0.5, (), True, "i0007", 12, "00ff00ff00ff00ff"),
    (DATA, 0, 0, 1, _MSG, 0.0, (), False, ("op", 3), None, None),
]


class TestConstruction:
    """The hand-written ``Frame.__init__`` builds what the generated one would."""

    def test_parameters_are_the_fields_in_order_with_their_defaults(self):
        twins.assert_parameters_are_the_fields(Frame)

    @pytest.mark.parametrize("args", FRAME_SAMPLES, ids=lambda a: f"{a[0]}-{len(a)}")
    def test_same_object_as_the_plain_frozen_twin(self, args):
        ours, plain = twins.assert_builds_the_twin(
            Frame, PlainFrame, args,
            [{"seq": 7}, {"trace": "t", "instance": "i1"}, {"messages": _MSGS}],
        )
        assert repr(ours) == repr(plain).replace("PlainFrame", "Frame", 1)
        assert decode_frame(encode_frame(ours)) == ours

    def test_frozen(self):
        twins.assert_frozen(Frame(*FRAME_SAMPLES[3]))

    def test_missing_and_unknown_arguments_are_refused(self):
        twins.assert_arguments_checked(Frame, (MARK, 1, "S", "p1"))


def _body(**fields):
    """A MARK body with *fields* replaced (``None`` drops the key)."""
    body = {"at": 0.0, "dst": "p1", "kind": "mark", "round": 1, "src": "S"}
    body.update(fields)
    return json.dumps({k: v for k, v in body.items() if v is not None}).encode()


_MSG_JSON = {
    "destination": "p1", "payload": "v", "round_sent": 1, "source": "S", "tag": "",
}
NOT_A_FRAME = {
    "list": b"[1]",
    "number": b"42",
    "string": b'"frame"',
    "null": b"null",
    "empty-object": b"{}",
    "no-round": _body(round=None),
    "batch-msgs-hold-a-number": _body(kind="batch", mark=True, msgs=[1]),
    "batch-msgs-not-a-list": _body(kind="batch", mark=True, msgs=3),
    "batch-without-mark": _body(kind="batch", msgs=[]),
    "data-without-msg": _body(kind="data"),
    "data-msg-without-source": _body(
        kind="data", msg={k: v for k, v in _MSG_JSON.items() if k != "source"}
    ),
    "data-msg-a-list": _body(kind="data", msg=["S", "p1"]),
    "empty-relay-path": _body(
        kind="data",
        msg={**_MSG_JSON, "payload": {"__repro__": "relay", "path": [], "value": 1}},
    ),
    "unhashable-dict-key": _body(dst={"__repro__": "dict", "items": [[[1], 2]]}),
    "version-a-list": _body(v=[2]),
    "too-deep-to-walk": _body(src=[[]]).replace(b"[[]]", b"[" * 900 + b"]" * 900),
    "too-deep-to-parse": b"[" * 100_000,
}


class TestDecodeRobustness:
    """A body that is valid JSON but no frame is a TransportError, the one
    error a stream reader contains — never an exception escaping it."""

    @pytest.mark.parametrize("body", NOT_A_FRAME.values(), ids=NOT_A_FRAME.keys())
    def test_a_body_that_is_no_frame_raises_transport_error(self, body):
        with pytest.raises(TransportError):
            decode_frame(body)

    @pytest.mark.parametrize("body", NOT_A_FRAME.values(), ids=NOT_A_FRAME.keys())
    def test_the_frames_before_it_survive_the_tolerant_feed(self, body):
        good = [
            Frame(kind=BATCH, round_no=1, source="S", destination="p1",
                  messages=_MSGS, mark=True, seq=1),
            Frame(kind=MARK, round_no=1, source="p2", destination="p1"),
        ]
        decoder = FrameDecoder()
        stream = b"".join(pack_frame(f) for f in good)
        stream += len(body).to_bytes(4, "big") + body
        frames, error = decoder.feed_tolerant(stream + pack_frame(good[1]))
        assert frames == good
        assert isinstance(error, TransportError)
        assert decoder.pending_bytes == 0

    def test_a_kind_it_does_not_build_still_decodes(self):
        # An older peer's link probe; the runner meters it as late.
        assert decode_frame(_body(kind="ping")).kind == "ping"

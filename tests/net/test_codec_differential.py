"""Differential test: the one-pass codec kernel against the reference oracle.

``tests/net/reference_codec.py`` holds the codec as it was — dict tree +
``json.dumps(sort_keys=True)`` out, ``json.loads`` + recursive walk in.
The live ``encode_frame`` / ``decode_frame`` must agree with it on every
frame: same bytes, same decoded frame, same error type and message — with
one deliberate departure: a JSON body that is not a frame raises
:class:`TransportError` (caused by the reference's own error) instead of
letting that error escape the stream reader.

Decoded frames are compared by ``repr``: it tells ``1`` from ``1.0`` from
``True`` and ``-0.0`` from ``0.0`` (``==`` does not) and treats ``nan`` as
equal to itself (``==`` does not).

``frame_size`` is held to the same oracle: it equals the reference's
encoded length on every frame here, on the golden frames, on every frame
a quick fuzz run carries and on every frame of served runs, and raises the
reference's error on every frame it rejects.  A runner-built BATCH frame
is sized from per-round parts; the frames that must not be are held to
the general path, and frames that share a stamp but differ in a field
whose equal values write differently (``1`` / ``True``) are sized apart.
"""

import asyncio
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scenario import build_behavior, node_ids
from repro.core.spec import DegradableSpec
from repro.core.values import DEFAULT
from repro.exceptions import TransportError
from repro.explore import run_on_virtual_clock
from repro.net import codec, transport
from repro.net.codec import (
    BATCH,
    DATA,
    MARK,
    Frame,
    decode_frame,
    encode_frame,
    frame_size,
)
from repro.net.transport import LocalBus
from repro.serve import AgreementService
from repro.sim import jsonable
from repro.sim.jsonable import canonical_json, from_jsonable, to_jsonable
from repro.sim.messages import Message, RelayPayload
from repro.verify.fuzz import run_fuzz

from tests.net import reference_codec as reference
from tests.net import test_codec_trace

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_any_char = st.characters(exclude_categories=())  # lone surrogates included
_texts = st.one_of(
    st.text(_any_char, max_size=12),
    st.sampled_from(
        [
            "",
            "p1",
            "byz:op7",
            "naïve-节点-🙂",
            '"quoted"\\back\nline\x00\x7f',
            b"\xff\xfeid".decode("utf-8", "surrogateescape"),
            "\ud800",
            "x" * 100,  # longer than the leaf memo keeps
        ]
    ),
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 1.0, 1e22, 1e-7, 5e-324, float("inf"), float("-inf"), float("nan")]
    ),
)
_ints = st.one_of(st.integers(), st.sampled_from([0, 1, -1, 2**63, -(10**30)]))
_scalars = st.one_of(
    st.just(DEFAULT), st.none(), st.booleans(), _ints, _floats, _texts
)
_hashable_scalars = st.one_of(st.booleans(), _ints, _texts, st.just(DEFAULT))
_node_ids = st.one_of(
    st.sampled_from(["S", "p1", "p2", "n0", "n6"]),
    _texts,
    _ints,
    st.booleans(),
    st.tuples(_ints, _texts),  # non-str, non-scalar node id
)


def _relay(values):
    return st.builds(
        RelayPayload,
        path=st.lists(_node_ids, min_size=1, max_size=4).map(tuple),
        value=values,
    )


_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_hashable_scalars, inner, max_size=3),
        _relay(inner),
    ),
    max_leaves=8,
)
_payloads = st.one_of(_relay(_scalars), _values)
_messages = st.builds(
    Message,
    source=_node_ids,
    destination=_node_ids,
    payload=_payloads,
    round_sent=st.integers(0, 9),
    tag=_texts,
)


@st.composite
def frames(draw):
    kind = draw(st.sampled_from([DATA, MARK, BATCH, "ping", "pong"]))
    fields = dict(
        kind=kind,
        round_no=draw(st.integers(0, 9)),
        source=draw(_node_ids),
        destination=draw(_node_ids),
        sent_at=draw(st.one_of(st.floats(0, 1e6), st.just(0.0), _floats)),
        # v1 (no instance) or v2; seq and tc each on or off.
        instance=draw(st.one_of(st.none(), _node_ids)),
        seq=draw(st.one_of(st.none(), st.integers(0, 2**40))),
        trace=draw(st.one_of(st.none(), st.text("0123456789abcdef", min_size=16, max_size=16))),
    )
    if kind == DATA:
        fields["message"] = draw(_messages)
    elif kind == BATCH:
        fields["messages"] = tuple(draw(st.lists(_messages, max_size=4)))
        fields["mark"] = draw(st.booleans())
    return Frame(**fields)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=400, deadline=None)
@given(frames())
def test_encode_and_decode_match_the_reference(frame):
    data = encode_frame(frame)
    assert data == reference.encode_frame(frame)
    assert data.isascii()
    assert repr(decode_frame(data)) == repr(reference.decode_frame(data))


@settings(max_examples=400, deadline=None)
@given(frames())
def test_frame_size_is_the_encoded_length(frame):
    assert frame_size(frame) == len(reference.encode_frame(frame))


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_json_is_the_sorted_dump_of_the_tree(value):
    expected = json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))
    assert canonical_json(value) == expected
    decoded = from_jsonable(json.loads(expected))
    assert repr(decoded) == repr(reference.from_jsonable(json.loads(expected)))


# ----------------------------------------------------------------------
# The leaf memo
# ----------------------------------------------------------------------
def _data(payload, **fields):
    return Frame(
        kind=DATA, round_no=1, source="S", destination="p1",
        message=Message("S", "p1", payload, 1, "byz"), **fields,
    )


@pytest.mark.parametrize("order", list(itertools.permutations([1, 1.0, True])))
def test_equal_valued_leaves_of_different_type_never_alias(order):
    """``1 == 1.0 == True`` and all three hash alike; the memo must not care."""
    for value in order * 2:
        frame = _data(RelayPayload(path=(value, "p1"), value=value), instance=value)
        data = encode_frame(frame)
        assert data == reference.encode_frame(frame)
        assert frame_size(frame) == len(data)
        decoded = decode_frame(data)
        assert type(decoded.message.payload.value) is type(value)
        assert type(decoded.message.payload.path[0]) is type(value)
        assert type(decoded.instance) is type(value)


def test_leaf_memo_is_bounded_and_skips_long_texts(monkeypatch):
    monkeypatch.setattr(jsonable, "LEAF_MEMO_ENTRIES", 8)
    jsonable._STR_TEXT.clear()
    jsonable._INT_TEXT.clear()
    for i in range(100):
        assert canonical_json(f"node-{i}") == f'"node-{i}"'
        assert canonical_json(10_000 + i) == str(10_000 + i)
        assert len(jsonable._STR_TEXT) <= 8 and len(jsonable._INT_TEXT) <= 8
    long_text = "é" * jsonable.LEAF_MEMO_TEXT
    assert canonical_json(long_text) == '"' + "\\u00e9" * jsonable.LEAF_MEMO_TEXT + '"'
    assert long_text not in jsonable._STR_TEXT
    # A memo hit returns the same text a miss computed.
    assert canonical_json("node-99") == '"node-99"' and "node-99" in jsonable._STR_TEXT


def test_scoped_memo_is_bounded_and_keeps_out_of_the_leaf_memos(monkeypatch):
    """Instance ids and tags are written through their own bounded memo:
    the same text as either writer, and never a leaf-memo entry."""
    monkeypatch.setattr(jsonable, "SCOPED_MEMO_ENTRIES", 8)
    jsonable._STR_TEXT.clear()
    jsonable._STR_LEN.clear()
    jsonable._SCOPED_TEXT.clear()
    for i in range(100):
        iid, tag = f"i{i:04d}", f"byz:i{i:04d}\u00e9"
        assert jsonable.scoped_json(iid) == json.dumps(iid)
        assert jsonable.scoped_json(tag, jsonable.raw_json) == json.dumps(tag)
        assert jsonable.scoped_json(tag) == jsonable.scoped_json(tag)
        assert 0 < len(jsonable._SCOPED_TEXT) <= 8
    assert not jsonable._STR_LEN and not jsonable._STR_TEXT
    # Anything but an exact str is the writer's call, errors included.
    assert jsonable.scoped_json(7) == "7" and jsonable.scoped_json(("a",)) == (
        canonical_json(("a",))
    )
    assert jsonable.scoped_json([1], jsonable.raw_json) == "[1]"
    with pytest.raises(TransportError):
        jsonable.scoped_json(object())


def test_mutable_payloads_are_re_read_on_every_encode():
    payload = ["a", {"k": 1}]
    frame = _data(payload)
    first = encode_frame(frame)
    payload[1]["k"] = 2
    payload.append(DEFAULT)
    second = encode_frame(frame)
    assert first != second
    assert second == reference.encode_frame(frame)
    # Sizing re-reads it too, and so does a LocalBus send.
    assert frame_size(frame) == len(second)
    bus = LocalBus()
    asyncio.run(bus.open(["p1"]))
    payload.append("longer")
    assert asyncio.run(bus.send(frame)) == len(reference.encode_frame(frame))
    payload.pop()
    assert asyncio.run(bus.send(frame)) == len(second)


def test_payload_memo_is_bounded_and_skips_long_texts(monkeypatch):
    monkeypatch.setattr(jsonable, "PAYLOAD_MEMO_ENTRIES", 8)
    jsonable._PAYLOAD_TEXT.clear()
    for i in range(100):
        payload = RelayPayload(path=("S", f"p{i}"), value="v")
        text = jsonable.payload_json(payload)
        assert text == canonical_json(payload) == jsonable.payload_json(payload)
        assert 0 < len(jsonable._PAYLOAD_TEXT) <= 8
    long_path = RelayPayload(path=("S", "n" * jsonable.PAYLOAD_MEMO_TEXT), value="v")
    long_value = RelayPayload(path=("S",), value="é" * jsonable.PAYLOAD_MEMO_TEXT)
    for payload in (long_path, long_value):
        assert jsonable.payload_json(payload) == canonical_json(payload)
        assert frame_size(_data(payload)) == len(reference.encode_frame(_data(payload)))
    held = list(jsonable._PAYLOAD_TEXT.values())
    assert held and all(len(t) <= jsonable.PAYLOAD_MEMO_TEXT for t in held)
    # Only payloads whose text cannot change are held: exact str hops and
    # a str or V_d value.  Numbers, containers and subclasses are re-read.
    jsonable._PAYLOAD_TEXT.clear()
    for payload in (
        RelayPayload(path=("S",), value=1),
        RelayPayload(path=("S",), value=True),
        RelayPayload(path=(1,), value="v"),
        RelayPayload(path=("S",), value=("v",)),
        RelayPayload(path=["S"], value="v"),
        RelayPayload(path=("S",), value=type("Str", (str,), {})("v")),
    ):
        assert jsonable.payload_json(payload) == canonical_json(payload)
    assert jsonable._PAYLOAD_TEXT == {}
    jsonable.payload_json(RelayPayload(path=("S", "p1"), value=DEFAULT))
    assert len(jsonable._PAYLOAD_TEXT) == 1


def test_length_memo_is_bounded_and_skips_long_texts(monkeypatch):
    monkeypatch.setattr(jsonable, "LEAF_MEMO_ENTRIES", 8)
    jsonable._STR_LEN.clear()
    jsonable._INT_LEN.clear()
    for i in range(100):
        assert jsonable.json_len(f"node-{i}") == len(f'"node-{i}"')
        assert jsonable.json_len(10_000 + i) == len(str(10_000 + i))
        assert len(jsonable._STR_LEN) <= 8 and len(jsonable._INT_LEN) <= 8
    long_text = "é" * jsonable.LEAF_MEMO_TEXT
    assert jsonable.json_len(long_text) == len(canonical_json(long_text))
    assert long_text not in jsonable._STR_LEN
    # 1, 1.0 and True are sized by their own text, in any order.
    for value in (1, 1.0, True, 1, True, 1.0):
        assert jsonable.json_len(value) == len(canonical_json(value))


# ----------------------------------------------------------------------
# Errors: same type, same loudness
# ----------------------------------------------------------------------
class _Exotic:
    def __repr__(self):
        return "<exotic>"


def _both_raise(fn_new, fn_reference, arg):
    with pytest.raises(TransportError) as new:
        fn_new(arg)
    with pytest.raises(TransportError) as ref:
        fn_reference(arg)
    assert str(new.value) == str(ref.value)
    assert type(new.value.__cause__) is type(ref.value.__cause__)


UNENCODABLE_FRAMES = [
    _data(_Exotic()),
    _data({1, 2}),
    _data(RelayPayload(path=("S",), value=[_Exotic()])),
    _data(b"bytes"),
    _data("ok", instance=_Exotic()),
    Frame(kind=DATA, round_no=1, source="S", destination="p1"),
    # Untagged envelope fields are json's call, TypeError included.
    Frame(kind=MARK, round_no=_Exotic(), source="S", destination="p1"),
    Frame(kind=MARK, round_no=1, source="S", destination="p1", trace=_Exotic()),
    Frame(
        kind=BATCH, round_no=1, source="S", destination="p1",
        messages=(Message("S", "p1", "v", 1, _Exotic()),),
    ),
]


@pytest.mark.parametrize("frame", UNENCODABLE_FRAMES)
def test_unencodable_frames_raise_the_same_transport_error(frame):
    _both_raise(encode_frame, reference.encode_frame, frame)


@pytest.mark.parametrize("frame", UNENCODABLE_FRAMES)
def test_frame_size_raises_what_encode_frame_raises(frame):
    _both_raise(frame_size, reference.encode_frame, frame)
    _both_raise(frame_size, encode_frame, frame)


@pytest.mark.parametrize(
    "frame",
    [
        # json emits these untagged fields its own way; so must the kernel.
        Frame(kind=MARK, round_no=[1, (2, 3)], source="S", destination="p1"),
        Frame(kind=MARK, round_no=1, source="S", destination="p1", trace={"b": 1, "a": None}),
        Frame(kind=MARK, round_no=True, source="S", destination="p1", sent_at=7),
        Frame(kind=BATCH, round_no=1, source="S", destination="p1", mark=None),
        Frame(kind="custom", round_no=1, source="S", destination="p1"),
        _data("v", seq=1.5),
    ],
)
def test_odd_envelope_fields_encode_as_json_would(frame):
    data = encode_frame(frame)
    assert data == reference.encode_frame(frame)
    assert repr(decode_frame(data)) == repr(reference.decode_frame(data))
    assert frame_size(frame) == len(data)


_GOLDENS = test_codec_trace.TestUntracedBytesUnchanged.GOLDENS


@pytest.mark.parametrize("kind", sorted(_GOLDENS))
def test_frame_size_of_a_golden_frame_is_its_length(kind):
    frame, golden = _GOLDENS[kind]
    assert frame_size(frame) == len(golden) == len(reference.encode_frame(frame))


@pytest.mark.parametrize("seed", [0, 7])
def test_frame_size_on_every_frame_of_a_quick_fuzz_run(monkeypatch, seed):
    """Every frame ``repro fuzz --quick`` carries — sized on LocalBus,
    encoded on TCP — is sized as the reference encodes it."""
    carried = []
    real_size, real_encode = codec.frame_size, codec.encode_frame

    def sizing(frame):
        carried.append(frame)
        return real_size(frame)

    def encoding(frame):
        carried.append(frame)
        return real_encode(frame)

    monkeypatch.setattr(transport, "frame_size", sizing)
    monkeypatch.setattr(codec, "encode_frame", encoding)
    report = run_fuzz(seed=seed, max_examples=6, transports=("local", "tcp"))
    assert report.ok
    assert len(carried) > 500
    assert {frame.kind for frame in carried} == {DATA, MARK, BATCH}
    for frame in carried:
        assert real_size(frame) == len(reference.encode_frame(frame)), frame


# ----------------------------------------------------------------------
# Per-round parts: served frames, frames left to the general path, aliases
# ----------------------------------------------------------------------
def _served_frames(monkeypatch, m, u, n, faults):
    """Every frame a service at ``(m, u, n)`` sizes on the virtual clock,
    one instance per entry of *faults* (``{node: behaviour kind}``)."""
    nodes = node_ids(n)
    sized = []
    real_size = codec.frame_size

    def sizing(frame):
        sized.append(frame)
        return real_size(frame)

    monkeypatch.setattr(transport, "frame_size", sizing)

    async def scenario():
        service = AgreementService(
            DegradableSpec(m=m, u=u, n_nodes=n), nodes, max_inflight=4,
            round_timeout=0.5, record_trace=False,
        )
        async with service:
            ids = [
                service.submit(
                    nodes[0], ("attack", "retreat")[i % 2],
                    behaviors={
                        node: build_behavior(kind, nodes)
                        for node, kind in plan.items()
                    },
                )
                for i, plan in enumerate(faults)
            ]
            for iid in ids:
                await service.decision(iid)

    run_on_virtual_clock(scenario())
    return sized


@pytest.mark.parametrize(
    "m, u, n, faults",
    [
        (1, 2, 5, [{}, {"p4": "lie"}, {"p2": "two-faced"},
                   {"p1": "lie", "p3": "two-faced"}, {"S": "two-faced"}]),
        (2, 2, 7, [{}, {"p5": "two-faced"}, {"p2": "lie", "p6": "two-faced"},
                   {"S": "lie"}]),
    ],
)
def test_frame_size_on_every_frame_of_served_runs(monkeypatch, m, u, n, faults):
    """Every frame a service sizes takes the per-round parts, and each is
    its encoded length, live and reference alike."""
    sized = _served_frames(monkeypatch, m, u, n, faults)
    assert len(sized) > 10 * len(faults)
    assert {frame.kind for frame in sized} == {BATCH}
    assert len({frame.instance for frame in sized}) == len(faults)
    for frame in sized:
        assert codec._round_batch_size(frame) is not None, frame
        size = frame_size(frame)
        assert size == len(encode_frame(frame)), frame
        assert size == len(reference.encode_frame(frame)), frame


def _batch(*messages, **fields):
    envelope = dict(
        kind=BATCH, round_no=2, source="p1", destination="p2",
        sent_at=1000.25, messages=messages, mark=True, instance="i7",
    )
    envelope.update(fields)
    return Frame(**envelope)


def _relayed(source="p1", destination="p2", tag="byz:i7", round_sent=2, value="a"):
    return Message(
        source, destination, RelayPayload(("S", source), value), round_sent, tag
    )


@pytest.mark.parametrize(
    "frame",
    [
        _batch(_relayed(), _relayed(source="p3")),  # mixed sources
        _batch(_relayed(), _relayed(destination="p3")),  # mixed destinations
        _batch(_relayed(), _relayed(tag="byz:i8")),  # mixed tags
        _batch(_relayed(), _relayed(round_sent=True)),  # mixed round types
        _batch(_relayed(tag=7)),  # a non-str tag
        _batch(
            Message(1, 2, RelayPayload((0, 1), "a"), 2, "byz:i7"),
            source=1, destination=2,
        ),  # int node ids
        _batch(_relayed(), seq=4),
        _batch(_relayed(), trace="00000000000000aa"),
        _batch(_relayed(), sent_at=0.0),
        _batch(_relayed(), sent_at=-0.0),
        _batch(_relayed(), sent_at=7),  # a non-float stamp
        _batch(_relayed(), instance=("i", 7)),
        _batch(_relayed(), mark=1.0),
        Frame(kind=DATA, round_no=2, source="p1", destination="p2",
              message=_relayed(), sent_at=1000.25),
        Frame(kind=MARK, round_no=2, source="p1", destination="p2",
              sent_at=1000.25),
    ],
)
def test_frames_off_the_round_path_are_sized_in_full(frame):
    assert codec._round_batch_size(frame) is None
    assert frame_size(frame) == len(reference.encode_frame(frame))


@pytest.mark.parametrize(
    "first, second",
    [
        (dict(mark=True), dict(mark=1)),
        (dict(mark=1), dict(mark=True)),
        (dict(mark=False), dict(mark=0)),
        (dict(instance=True), dict(instance=1)),
        (dict(instance=1), dict(instance=True)),
        (dict(instance=None), dict(instance="i7")),
        (dict(round_no=True), dict(round_no=1)),
        (dict(round_no=1), dict(round_no=True)),
    ],
)
def test_frames_sharing_a_stamp_never_alias_a_field_of_another_type(
    first, second
):
    """The per-round memo keys each field by exact type and value: a frame
    whose field equals the last one's in value alone is sized afresh."""
    for fields in (first, second, first):
        frame = _batch(_relayed(), sent_at=4321.5, **fields)
        assert codec._round_batch_size(frame) is not None
        assert frame_size(frame) == len(reference.encode_frame(frame)), fields


def test_round_memos_are_bounded(monkeypatch):
    monkeypatch.setattr(codec, "ROUND_MEMO_ENTRIES", 4)
    monkeypatch.setattr(codec, "_ENVELOPE_PARTS", {})
    monkeypatch.setattr(codec, "_MESSAGE_PARTS", {})
    for index in range(10):
        frame = _batch(
            _relayed(round_sent=index), sent_at=100.0 + index, round_no=index
        )
        assert frame_size(frame) == len(reference.encode_frame(frame))
        assert len(codec._ENVELOPE_PARTS) <= 4
        assert len(codec._MESSAGE_PARTS) <= 4


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe",
        b"{not json",
        b"",
        b'{"at":0.0,"dst":"a","kind":"mark","round":1,"src":"b","v":3}',
        b'{"at":0.0,"dst":{"__repro__":"nope"},"kind":"mark","round":1,"src":"b"}',
        b'{"at":0.0,"dst":{"plain":"dict"},"kind":"mark","round":1,"src":"b"}',
        b'{"at":0.0,"dst":"a","kind":"data","msg":{"destination":"a","payload":'
        b'[{"__repro__":"tuple","items":[{"x":1}]}],"round_sent":1,"source":"b",'
        b'"tag":"t"},"round":1,"src":"b"}',
    ],
)
def test_undecodable_bytes_raise_the_same_transport_error(data):
    _both_raise(decode_frame, reference.decode_frame, data)


@pytest.mark.parametrize(
    "data",
    [
        # Foreign but legal: unknown keys ignored, tags in untagged fields
        # left alone, list payloads walked.
        b'{"at":1,"dst":"a","extra":{"x":[1]},"kind":"mark","round":1,"src":"b"}',
        b'{"at":0.0,"dst":"a","kind":"batch","mark":1,"msgs":[{"destination":"a",'
        b'"payload":[{"__repro__":"vd"},[{"__repro__":"dict","items":[[1,2]]}]],'
        b'"round_sent":{"__repro__":"vd"},"source":"b","tag":[{"__repro__":"vd"}]}],'
        b'"round":1,"src":"b","tc":{"__repro__":"vd"}}',
        b'{"at":0.0,"dst":"a","iid":{"__repro__":"opaque","text":"<x>"},'
        b'"kind":"ping","round":0,"src":"b","v":2}',
    ],
)
def test_foreign_but_legal_bytes_decode_as_the_reference_does(data):
    assert repr(decode_frame(data)) == repr(reference.decode_frame(data))


@pytest.mark.parametrize(
    "data",
    [
        b"[1,2]",
        b'{"at":0.0,"dst":"a","round":1,"src":"b"}',
        b'{"at":0.0,"dst":"a","kind":"data","round":1,"src":"b"}',
        b'{"at":0.0,"dst":"a","kind":"data","msg":{"destination":"a","payload":'
        b'{"__repro__":"relay","path":[],"value":1},"round_sent":1,"source":"b",'
        b'"tag":"t"},"round":1,"src":"b"}',
    ],
)
def test_malformed_bodies_fail_as_loudly_as_before(data):
    """Valid JSON that is not a frame: the reference's error, now wrapped
    in the TransportError a stream reader contains."""
    with pytest.raises(Exception) as ref:
        reference.decode_frame(data)
    assert not isinstance(ref.value, TransportError)
    with pytest.raises(TransportError) as new:
        decode_frame(data)
    cause = new.value.__cause__
    assert type(cause) is type(ref.value) and str(cause) == str(ref.value)

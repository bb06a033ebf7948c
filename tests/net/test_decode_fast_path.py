"""The decode fast path builds what the reference walk builds.

``decode_frame`` builds a message of the usual shape directly — ``str``
node ids as parsed, and a relay over ``str`` hops with a ``str`` or
``V_d`` value as the one :class:`~repro.sim.messages.RelayPayload` the
decode memo holds per ``(path, value)``.  Every other shape goes through
``from_jsonable``.  Against ``tests/net/reference_codec.py`` every body
here decodes to the same frame — compared by ``repr``, so ``1``, ``1.0``
and ``True`` never pass for one another — or fails with the same error;
and it does so twice in a row, so a memo hit is checked as well as the
miss that filled it.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import DEFAULT
from repro.exceptions import TransportError
from repro.net.codec import DATA, Frame, decode_frame, encode_frame
from repro.sim import jsonable
from repro.sim.jsonable import TAG, to_jsonable_lossy
from repro.sim.messages import RelayPayload

from tests.net import reference_codec as reference
from tests.net import test_codec_differential as differential

VD = {TAG: "vd"}


def _body(payload, source="S", destination="p1", **message_extra):
    message = {
        "destination": destination,
        "payload": payload,
        "round_sent": 1,
        "source": source,
        "tag": "byz",
        **message_extra,
    }
    envelope = {
        "at": 0.5, "dst": destination, "kind": DATA, "msg": message,
        "round": 1, "src": source,
    }
    return json.dumps(envelope, sort_keys=True).encode()


def _same_as_reference(data):
    """Decode *data* as the reference does: the same frame, or the same
    error (the reference's own TransportError, or its raw error as the
    cause of ours)."""
    try:
        expected = reference.decode_frame(data)
    except TransportError as ref:
        with pytest.raises(TransportError) as new:
            decode_frame(data)
        assert str(new.value) == str(ref)
        return None
    except Exception as ref:  # noqa: BLE001 - whatever the reference raises
        with pytest.raises(TransportError) as new:
            decode_frame(data)
        cause = new.value.__cause__
        assert type(cause) is type(ref) and str(cause) == str(ref)
        return None
    got = decode_frame(data)
    assert repr(got) == repr(expected)
    assert [type(m.payload) for m in _messages(got)] == [
        type(m.payload) for m in _messages(expected)
    ]
    return got


def _messages(frame):
    return [frame.message] if frame.message is not None else list(frame.messages)


# ----------------------------------------------------------------------
# Bodies a peer could send: the usual relay and everything around it
# ----------------------------------------------------------------------
_texts = st.one_of(st.sampled_from(["S", "p1", "p2", "", "x" * 300]), st.text(max_size=6))
_hops = st.one_of(
    _texts,
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([1.0, 0.0, None]),
    st.just({TAG: "tuple", "items": ["S", 1]}),
    st.just(["S"]),
)
_relay_values = st.one_of(
    _texts,
    st.just(VD),
    st.just({TAG: "vd", "extra": 1}),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([1.0, None, [], ["v"], {}, {TAG: "tuple", "items": ["v"]}]),
    st.just({TAG: "relay", "path": ["S"], "value": "v"}),
    st.just({TAG: "nope"}),
)


@st.composite
def relay_trees(draw):
    tree = {TAG: draw(st.sampled_from(["relay", "relay", "relay", "tuple", "vd"]))}
    if draw(st.integers(0, 9)):
        tree["path"] = draw(
            st.one_of(
                st.lists(_hops, max_size=4),
                st.lists(_texts, min_size=1, max_size=4),
                st.just({"S": 1}),
                st.just("S"),
            )
        )
    if draw(st.integers(0, 9)):
        tree["value"] = draw(_relay_values)
    if draw(st.integers(0, 3)) == 0:
        tree[draw(st.sampled_from(["extra", "items", "text", TAG + "x"]))] = draw(
            _relay_values
        )
    if draw(st.integers(0, 9)) == 0:
        del tree[TAG]
    return tree


_payload_trees = st.one_of(
    relay_trees(),
    _relay_values,
    st.lists(relay_trees(), max_size=2),
)
_node_trees = st.one_of(_texts, st.integers(0, 3), st.just({TAG: "tuple", "items": [1]}))


@settings(max_examples=500, deadline=None)
@given(_payload_trees, _node_trees, _node_trees)
def test_a_peer_body_decodes_as_the_reference_does(payload, source, destination):
    data = _body(payload, source, destination)
    first = _same_as_reference(data)
    second = _same_as_reference(data)
    if first is not None and first.message.payload.__class__ is RelayPayload:
        assert repr(second.message.payload) == repr(first.message.payload)


@settings(max_examples=300, deadline=None)
@given(differential.frames())
def test_an_encoded_frame_decodes_as_the_reference_does(frame):
    try:
        data = encode_frame(frame)
    except TransportError:
        return
    _same_as_reference(data)
    _same_as_reference(data)


@pytest.mark.parametrize("frame", differential.UNENCODABLE_FRAMES)
def test_an_unencodable_frame_read_losslessly_decodes_as_the_reference_does(frame):
    """The trace's lossy reading of each frame the wire refuses — opaque
    values, stray types — as a peer body."""
    message = frame.message
    payload = to_jsonable_lossy(message.payload) if message is not None else "v"
    _same_as_reference(_body(payload))


def _parametrized(test):
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


@pytest.mark.parametrize(
    "data",
    _parametrized(differential.test_undecodable_bytes_raise_the_same_transport_error)
    + _parametrized(differential.test_foreign_but_legal_bytes_decode_as_the_reference_does)
    + _parametrized(differential.test_malformed_bodies_fail_as_loudly_as_before),
)
def test_the_differential_suites_bodies_decode_as_the_reference_does(data):
    _same_as_reference(data)
    _same_as_reference(data)


@pytest.mark.parametrize(
    "payload",
    [
        {TAG: "relay", "path": ["S", "p1"], "value": "v"},
        {TAG: "relay", "path": ["S", "p1"], "value": VD},
        {TAG: "relay", "path": ["S"], "value": {TAG: "vd", "x": 1}},
        {TAG: "relay", "path": ["S"], "value": "v", "extra": [1, 2]},
        {TAG: "relay", "path": ["S"], "value": VD, "extra": {TAG: "nope"}},
        {TAG: "relay", "path": [], "value": "v"},
        {TAG: "relay", "path": [], "value": VD},
        {TAG: "relay", "path": ["S"]},
        {TAG: "relay", "value": "v"},
        {TAG: "relay", "path": [1], "value": "v"},
        {TAG: "relay", "path": [True], "value": "v"},
        {TAG: "relay", "path": [1.0], "value": "v"},
        {TAG: "relay", "path": [{TAG: "tuple", "items": ["S", 1]}], "value": "v"},
        {TAG: "relay", "path": ["S"], "value": 1},
        {TAG: "relay", "path": ["S"], "value": True},
        {TAG: "relay", "path": ["S"], "value": 1.0},
        {TAG: "relay", "path": ["S"], "value": {}},
        {TAG: "relay", "path": ["S"], "value": [VD]},
        {TAG: "relay", "path": ["S"], "value": {TAG: "tuple", "items": ["v"]}},
        {TAG: "relay", "path": "S", "value": "v"},
        {TAG: "relay", "path": {"S": 0}, "value": "v"},
        {TAG: "tuple", "items": ["S"]},
        VD,
        "plain",
        ["S", VD],
    ],
)
def test_each_shape_decodes_as_the_reference_does(payload):
    _same_as_reference(_body(payload))
    _same_as_reference(_body(payload))


def test_equal_valued_hops_and_values_of_different_type_never_alias():
    """One memo, filled by one shape, never answers for another: ``1``,
    ``1.0`` and ``True`` are equal and hash alike in Python."""
    for a, b in [(1, True), (1.0, 1), ("1", 1)]:
        for first, second in [(a, b), (b, a)]:
            for path_hop in (True, False):
                bodies = [
                    _body({TAG: "relay", "path": [x] if path_hop else ["S"],
                           "value": "v" if path_hop else x})
                    for x in (first, second)
                ]
                for data in bodies:
                    _same_as_reference(data)


def test_a_usual_relay_is_one_shared_payload():
    body = _body({TAG: "relay", "path": ["S", "p2"], "value": "share"})
    vd_body = _body({TAG: "relay", "path": ["S", "p2"], "value": VD})
    first, second = decode_frame(body), decode_frame(body)
    assert first.message.payload is second.message.payload
    vd = decode_frame(vd_body).message.payload
    assert vd.value is DEFAULT
    assert vd is decode_frame(vd_body).message.payload
    assert vd is not first.message.payload


def test_the_decode_memo_is_bounded_and_skips_long_texts(monkeypatch):
    monkeypatch.setattr(jsonable, "PAYLOAD_MEMO_ENTRIES", 4)
    monkeypatch.setattr(jsonable, "_PAYLOAD_OBJECT", {})
    for i in range(10):
        decode_frame(_body({TAG: "relay", "path": ["S"], "value": f"v{i}"}))
        assert len(jsonable._PAYLOAD_OBJECT) <= 4
    long = _body({TAG: "relay", "path": ["S"], "value": "x" * 300})
    assert decode_frame(long).message.payload is not decode_frame(long).message.payload
    assert all(len(key[1] or "") <= 256 for key in jsonable._PAYLOAD_OBJECT)


def test_a_v_d_memo_key_never_hashes_v_d(monkeypatch):
    """Both payload memos key ``V_d`` by a stand-in: a lookup calls no
    Python-level ``__hash__``."""
    from repro.core import values

    calls = []
    real = values.DefaultValue.__hash__

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(values.DefaultValue, "__hash__", counting)
    payload = RelayPayload(("S", "p1"), DEFAULT)
    frame = Frame(kind=DATA, round_no=1, source="S", destination="p1",
                  message=differential._data(payload).message)
    for _ in range(3):
        data = encode_frame(frame)
        assert decode_frame(data).message.payload.value is DEFAULT
    assert calls == []

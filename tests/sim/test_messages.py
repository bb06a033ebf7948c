"""Unit tests for message and payload objects."""

import dataclasses
from typing import Any, Hashable, Tuple

import pytest

from repro.core.values import DEFAULT
from repro.sim.messages import Envelope, Message, RelayPayload
from tests import twins


class TestMessage:
    def test_immutable(self):
        msg = Message(source="a", destination="b", payload=1)
        with pytest.raises(AttributeError):
            msg.payload = 2

    def test_with_payload_copies(self):
        msg = Message(source="a", destination="b", payload=1, round_sent=3, tag="t")
        new = msg.with_payload(2)
        assert new.payload == 2
        assert new.source == "a" and new.destination == "b"
        assert new.round_sent == 3 and new.tag == "t"
        assert msg.payload == 1  # original untouched

    def test_equality(self):
        a = Message(source="a", destination="b", payload=1)
        b = Message(source="a", destination="b", payload=1)
        assert a == b


class TestRelayPayload:
    def test_path_required(self):
        with pytest.raises(ValueError):
            RelayPayload(path=(), value=1)

    def test_hashable(self):
        p = RelayPayload(path=("S", "A"), value="v")
        assert hash(p) == hash(RelayPayload(path=("S", "A"), value="v"))


@dataclasses.dataclass(frozen=True)
class PlainMessage:
    """Message as the generated frozen dataclass would build it."""

    source: Hashable
    destination: Hashable
    payload: Any
    round_sent: int = 0
    tag: str = ""


@dataclasses.dataclass(frozen=True)
class PlainRelayPayload:
    """RelayPayload as the generated frozen dataclass would build it."""

    path: Tuple[Hashable, ...]
    value: Any

    def __post_init__(self):
        if not self.path:
            raise ValueError("RelayPayload.path must be non-empty")


RELAY_SAMPLES = [
    (("S",), "engage"),
    (("S", "p1", "p2"), DEFAULT),
    (("S", 3, ("n", 0)), ("a", 1, None)),
    (("S",), [1, {"k": 2.5}]),
    (("S", "p1"), RelayPayload(("S",), "inner")),
]

MESSAGE_SAMPLES = [
    ("S", "p1", RelayPayload(("S",), "engage")),
    ("p1", "p2", RelayPayload(("S", "p1"), DEFAULT), 2),
    ("p2", "S", "plain", 3, "byz:i0007"),
    (0, 1, [1, 2], 1, ""),
]


class TestConstruction:
    """The hand-written ``__init__``/``__repr__`` build and render what the
    generated ones would."""

    @pytest.mark.parametrize("cls", [Message, RelayPayload])
    def test_parameters_are_the_fields_in_order_with_their_defaults(self, cls):
        twins.assert_parameters_are_the_fields(cls)

    @pytest.mark.parametrize("args", MESSAGE_SAMPLES)
    def test_message_is_the_plain_frozen_twin(self, args):
        ours, plain = twins.assert_builds_the_twin(
            Message, PlainMessage, args,
            [{"payload": "x"}, {"round_sent": 9}, {"tag": "t", "source": "p4"}],
        )
        assert repr(ours) == repr(plain).replace("PlainMessage", "Message", 1)
        assert vars(ours.with_payload("y")) == vars(
            dataclasses.replace(plain, payload="y")
        )

    @pytest.mark.parametrize("args", RELAY_SAMPLES)
    def test_relay_payload_is_the_plain_frozen_twin(self, args):
        ours, plain = twins.assert_builds_the_twin(
            RelayPayload, PlainRelayPayload, args,
            [{"value": "x"}, {"path": ("S", "p9")}],
        )
        text = repr(plain).replace("PlainRelayPayload", "RelayPayload", 1)
        assert repr(ours) == str(ours) == text

    def test_relay_repr_renders_v_d_and_tuples_as_generated(self):
        assert repr(RelayPayload(("S", "p1"), DEFAULT)) == (
            "RelayPayload(path=('S', 'p1'), value=V_d)"
        )
        assert repr(RelayPayload(("S",), ("a", 1))) == (
            "RelayPayload(path=('S',), value=('a', 1))"
        )

    @pytest.mark.parametrize(
        "obj", [Message("S", "p1", "v", 1, "t"), RelayPayload(("S",), "v")]
    )
    def test_frozen(self, obj):
        twins.assert_frozen(obj)

    def test_missing_and_unknown_arguments_are_refused(self):
        twins.assert_arguments_checked(Message, ("S", "p1", "v"))
        twins.assert_arguments_checked(RelayPayload, (("S",), "v"))

    def test_an_empty_path_is_refused_by_position_keyword_and_replace(self):
        for build in (
            lambda: RelayPayload((), 1),
            lambda: RelayPayload(path=(), value=1),
            lambda: dataclasses.replace(RelayPayload(("S",), 1), path=()),
        ):
            with pytest.raises(ValueError, match="must be non-empty"):
                build()


class TestEnvelope:
    def test_hop_progression(self):
        msg = Message(source="a", destination="d", payload=1)
        env = Envelope(message=msg, route=("b", "c", "d"))
        assert env.next_hop() == "b"
        env = env.advance()
        assert env.next_hop() == "c"
        env = env.advance().advance()
        assert env.next_hop() is None

"""The pre-kernel wire codec, kept verbatim as the differential oracle.

These are the bodies ``repro.net.codec`` / ``repro.sim.jsonable`` /
``AsyncRoundRunner._batch_savings`` had before frames were serialized in
one pass: ``to_jsonable`` -> dict tree -> ``json.dumps(sort_keys=True)`` on
the way out, ``json.loads`` -> recursive ``from_jsonable`` walk on the way
in, and batch savings measured by re-encoding every frame the batch
replaced.  Nothing here is imported by ``src/``; the tests in
``test_codec_differential.py`` and ``test_wire_cost.py`` require the
live codec to agree with it byte for byte.  Do not "fix" or speed up this
file — it is the definition of the wire format.
"""

import json
from typing import Any, Tuple

from repro.core.values import DEFAULT
from repro.exceptions import TransportError
from repro.net.codec import BATCH, DATA, ENVELOPE_VERSIONS, MARK, Frame
from repro.sim.jsonable import TAG, Opaque
from repro.sim.messages import Message, RelayPayload


def to_jsonable(value: Any) -> Any:
    """Reduce *value* to JSON-representable primitives, tagging the rest."""
    if value is DEFAULT:
        return {TAG: "vd"}
    if isinstance(value, Opaque):
        return {TAG: "opaque", "text": value.text}
    if isinstance(value, RelayPayload):
        return {
            TAG: "relay",
            "path": [to_jsonable(hop) for hop in value.path],
            "value": to_jsonable(value.value),
        }
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [to_jsonable(v) for v in value]}
    if isinstance(value, dict):
        return {
            TAG: "dict",
            "items": [[to_jsonable(k), to_jsonable(v)] for k, v in value.items()],
        }
    if isinstance(value, list):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TransportError(
        f"value of type {type(value).__name__} is not wire-encodable: {value!r}"
    )


def from_jsonable(obj: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    if isinstance(obj, dict):
        tag = obj.get(TAG)
        if tag == "vd":
            return DEFAULT
        if tag == "opaque":
            return Opaque(obj["text"])
        if tag == "relay":
            return RelayPayload(
                path=tuple(from_jsonable(hop) for hop in obj["path"]),
                value=from_jsonable(obj["value"]),
            )
        if tag == "tuple":
            return tuple(from_jsonable(v) for v in obj["items"])
        if tag == "dict":
            return {from_jsonable(k): from_jsonable(v) for k, v in obj["items"]}
        raise TransportError(f"unknown wire tag {tag!r}")
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def message_to_jsonable(message: Message) -> dict:
    """Structural (tag-free at top level) JSON form of one message."""
    return {
        "source": to_jsonable(message.source),
        "destination": to_jsonable(message.destination),
        "payload": to_jsonable(message.payload),
        "round_sent": message.round_sent,
        "tag": message.tag,
    }


def message_from_jsonable(raw: dict) -> Message:
    """Inverse of :func:`message_to_jsonable`."""
    return Message(
        source=from_jsonable(raw["source"]),
        destination=from_jsonable(raw["destination"]),
        payload=from_jsonable(raw["payload"]),
        round_sent=raw["round_sent"],
        tag=raw["tag"],
    )


_message_to_jsonable = message_to_jsonable
_message_from_jsonable = message_from_jsonable


def encode_frame(frame: Frame) -> bytes:
    """Canonical JSON body for *frame* (no length prefix)."""
    body = {
        "kind": frame.kind,
        "round": frame.round_no,
        "src": to_jsonable(frame.source),
        "dst": to_jsonable(frame.destination),
        "at": frame.sent_at,
    }
    if frame.kind == DATA:
        if frame.message is None:
            raise TransportError("DATA frame without a message")
        body["msg"] = _message_to_jsonable(frame.message)
    elif frame.kind == BATCH:
        body["msgs"] = [_message_to_jsonable(m) for m in frame.messages]
        body["mark"] = frame.mark
    if frame.instance is not None:
        # Version 2 envelope: only multiplexed frames pay for the extra
        # keys, keeping single-instance encodings byte-identical to the
        # legacy (version 1) wire format.
        body["v"] = 2
        body["iid"] = to_jsonable(frame.instance)
    if frame.seq is not None:
        # Orthogonal to the envelope version: only supervised links pay
        # for the key, so unsupervised encodings stay byte-identical.
        body["seq"] = frame.seq
    if frame.trace is not None:
        # Trace context rides the same conditional-key pattern: only
        # traced frames carry it, so untraced encodings (and all archived
        # byte streams) are untouched.
        body["tc"] = frame.trace
    try:
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"frame not JSON-encodable: {exc}") from exc


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame`."""
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed frame: {exc}") from exc
    version = body.get("v", 1)
    if version not in ENVELOPE_VERSIONS:
        raise TransportError(
            f"unsupported frame envelope version {version!r} "
            f"(this codec understands {ENVELOPE_VERSIONS})"
        )
    message = None
    messages: Tuple[Message, ...] = ()
    mark = False
    if body["kind"] == DATA:
        message = _message_from_jsonable(body["msg"])
    elif body["kind"] == BATCH:
        messages = tuple(_message_from_jsonable(raw) for raw in body["msgs"])
        mark = bool(body["mark"])
    return Frame(
        kind=body["kind"],
        round_no=body["round"],
        source=from_jsonable(body["src"]),
        destination=from_jsonable(body["dst"]),
        message=message,
        sent_at=body["at"],
        messages=messages,
        mark=mark,
        instance=from_jsonable(body["iid"]) if "iid" in body else None,
        seq=body.get("seq"),
        trace=body.get("tc"),
    )


def batch_savings(frame: Frame, nbytes: int) -> int:
    """Envelope bytes one batch saved vs per-message frames + a marker.

    Exact (re-encodes the frames the batch replaced), but only
    computed for byte-measuring transports; unmeasured sends
    (``nbytes == 0``) report 0 saved rather than paying the codec.
    """
    if nbytes <= 0:
        return 0
    unbatched = sum(
        len(
            encode_frame(
                Frame(
                    kind=DATA,
                    round_no=frame.round_no,
                    source=frame.source,
                    destination=frame.destination,
                    message=message,
                    sent_at=frame.sent_at,
                    instance=frame.instance,
                )
            )
        )
        for message in frame.messages
    )
    if frame.mark:
        unbatched += len(
            encode_frame(
                Frame(
                    kind=MARK,
                    round_no=frame.round_no,
                    source=frame.source,
                    destination=frame.destination,
                    sent_at=frame.sent_at,
                    instance=frame.instance,
                )
            )
        )
    return max(0, unbatched - len(encode_frame(frame)))

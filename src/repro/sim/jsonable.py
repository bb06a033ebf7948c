"""Lossless JSON reduction for the protocol value domain.

Everything the agreement protocols exchange — and everything execution
traces record — is reduced to JSON with a small tagging scheme so the
value domain survives a round trip *exactly*:

* the default value ``V_d`` (a process-local singleton) becomes
  ``{"__repro__": "vd"}`` and decodes back to the *same* singleton, so
  identity checks (``value is DEFAULT``) keep working after decoding;
* tuples — relay paths are tuples of node ids — are tagged so they do not
  collapse into lists;
* dicts are encoded as tagged item lists, which keeps non-string keys legal
  and makes the tag namespace collision-free (a user dict that happens to
  contain the key ``"__repro__"`` is *data*, never a tag);
* :class:`~repro.sim.messages.RelayPayload` gets its own tag so a decoded
  message is structurally identical to the sent one.

Two layers build on this module: the wire codec
(:mod:`repro.net.codec`), which is *strict* — a value that cannot be
encoded is a :class:`~repro.exceptions.TransportError` — and the trace
serialization (:mod:`repro.sim.trace`), which falls back to an explicit
:class:`Opaque` wrapper for exotic payloads so a trace can always be
written and read back stably.

The wire codec's send path skips the JSON *tree*: :func:`canonical_json`
writes, straight from the value, the text that
``json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))``
would produce, byte for byte.  The trace's line and header writers use
the same kernel through :func:`lossy_json`, which adds only the trace's
whole-field :class:`Opaque` fallback.  Its invariants:

* **keys sorted by construction** — every object emitted is one of the
  fixed tagged shapes above, written with its keys already in order;
* **ASCII-only output** — strings go through ``json``'s own
  ``ensure_ascii`` escaper — so ``len(text)`` is the encoded byte count;
* exact ``str`` and ``int`` leaves (node ids, path hops, round numbers)
  come from a **bounded memo**: one table per exact type, i.e.
  keyed by ``(type, value)`` so ``1``, ``1.0`` and ``True`` never alias,
  filled lazily, at most :data:`LEAF_MEMO_ENTRIES` texts of at most
  :data:`LEAF_MEMO_TEXT` characters each, cleared when full; nothing is
  cached on messages or for containers, so mutable payloads are re-read;
  their *lengths*, which size a frame without writing it
  (:func:`json_len`, :func:`message_json_len`), come from a length memo
  of the same shape and bounds;
* a message's payload comes from a second **bounded memo**
  (:func:`payload_json`) when its text cannot change — a relay payload
  over exact ``str`` hops and an exact ``str`` or ``V_d`` value — so a
  payload relayed to many receivers is written once; at most
  :data:`PAYLOAD_MEMO_ENTRIES` texts of at most :data:`PAYLOAD_MEMO_TEXT`
  characters, cleared when full;
* a field that lives as long as one protocol instance — a frame's
  instance id, a message's tag (``byz:i0042``) — never enters the leaf
  memos: :func:`scoped_json` holds it in a small table of its own
  (:data:`SCOPED_MEMO_ENTRIES`, cleared when full), so a service that
  runs thousands of instances keeps its node ids memoized instead of
  flushing them with one-use keys;
* the rest is still ``json``'s: string escaping on a memo miss,
  ``float.__repr__`` for finite floats, and a stock ``JSONEncoder`` for
  non-finite floats, scalar subclasses and untagged non-scalar fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Any, Callable, Dict, Tuple

from repro.core.values import DEFAULT
from repro.exceptions import TransportError
from repro.sim.messages import Message, RelayPayload

TAG = "__repro__"


@dataclass(frozen=True)
class Opaque:
    """A value that could not be encoded structurally, kept as its ``repr``.

    Appears only in deserialized *traces* (never on the wire): once a
    payload has been reduced to an :class:`Opaque`, re-encoding it yields
    the identical JSON, so trace round-trips are stable after the first
    conversion.
    """

    text: str


#: Bounds of each leaf-memo table: entries held, and characters per text.
LEAF_MEMO_ENTRIES = 4096
LEAF_MEMO_TEXT = 64

#: Bounds of the payload memo: entries held, and characters per text.
PAYLOAD_MEMO_ENTRIES = 4096
PAYLOAD_MEMO_TEXT = 256

#: Entries of the instance-scoped memo: two per instance in flight.
SCOPED_MEMO_ENTRIES = 256

_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_STR_TEXT: Dict[str, str] = {}
_INT_TEXT: Dict[int, str] = {}
_STR_LEN: Dict[str, int] = {}
_INT_LEN: Dict[int, int] = {}
_PAYLOAD_TEXT: Dict[Tuple[Tuple[str, ...], Any], str] = {}
_SCOPED_TEXT: Dict[str, str] = {}
_escape = json.encoder.encode_basestring_ascii
_stock_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
    if obj.__class__ in _SCALAR_TYPES:
        return obj
    if isinstance(obj, dict):
        tag = obj.get(TAG)
        if tag == "vd":
            return DEFAULT
        if tag == "relay":
            return RelayPayload(
                tuple([from_jsonable(hop) for hop in obj["path"]]),
                from_jsonable(obj["value"]),
            )
        if tag == "tuple":
            return tuple([from_jsonable(v) for v in obj["items"]])
        if tag == "dict":
            return {from_jsonable(k): from_jsonable(v) for k, v in obj["items"]}
        if tag == "opaque":
            return Opaque(obj["text"])
        raise TransportError(f"unknown wire tag {tag!r}")
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# Canonical text, written directly (wire frames and trace lines)
# ----------------------------------------------------------------------
def _remember(table: dict, value: Any, text: str) -> str:
    if len(text) <= LEAF_MEMO_TEXT:
        if len(table) >= LEAF_MEMO_ENTRIES:
            table.clear()
        table[value] = text
    return text


def _remember_len(table: dict, value: Any, text: str) -> int:
    size = len(text)
    if size <= LEAF_MEMO_TEXT:
        if len(table) >= LEAF_MEMO_ENTRIES:
            table.clear()
        table[value] = size
    return size


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``to_jsonable(value)``, without the tree.

    Exact-type fast paths for the scalar leaves first, then
    :func:`to_jsonable`'s own order of ``isinstance`` checks.
    """
    cls = value.__class__
    if cls is str:
        return _STR_TEXT.get(value) or _remember(_STR_TEXT, value, _escape(value))
    if cls is int:
        return _INT_TEXT.get(value) or _remember(_INT_TEXT, value, int.__repr__(value))
    if value is DEFAULT:
        return '{"__repro__":"vd"}'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if cls is float and isfinite(value):
        return float.__repr__(value)
    if isinstance(value, Opaque):
        return f'{{"__repro__":"opaque","text":{canonical_json(value.text)}}}'
    if isinstance(value, RelayPayload):
        path = ",".join([canonical_json(hop) for hop in value.path])
        return (
            f'{{"__repro__":"relay","path":[{path}],'
            f'"value":{canonical_json(value.value)}}}'
        )
    if isinstance(value, tuple):
        items = ",".join([canonical_json(v) for v in value])
        return f'{{"__repro__":"tuple","items":[{items}]}}'
    if isinstance(value, dict):
        items = ",".join(
            [f"[{canonical_json(k)},{canonical_json(v)}]" for k, v in value.items()]
        )
        return f'{{"__repro__":"dict","items":[{items}]}}'
    if isinstance(value, list):
        return f'[{",".join([canonical_json(v) for v in value])}]'
    if isinstance(value, (str, int, float, bool)):
        return _stock_json(value)
    raise TransportError(
        f"value of type {type(value).__name__} is not wire-encodable: {value!r}"
    )


def raw_json(value: Any) -> str:
    """Canonical JSON text of an *untagged* field (a round number, a tag).

    Emitted as ``json`` would: exact scalars share :func:`canonical_json`'s
    fast paths, anything else is ``json``'s call (and its ``TypeError``).
    """
    if value.__class__ in _SCALAR_TYPES:
        return canonical_json(value)
    return _stock_json(value)


def json_len(value: Any, write: Callable[[Any], str] = canonical_json) -> int:
    """``len(write(value))``, without the text for a frame's usual leaves.

    *write* is :func:`canonical_json` or :func:`raw_json`; both emit an
    exact ``str``, ``int`` or finite ``float`` alike.  An exact ``str`` or
    ``int`` takes its length from the length memo (one table per exact
    type, bounded like the text memo), a finite ``float`` from its
    ``repr``; anything else, and a memo miss, is *write*'s call.
    """
    cls = value.__class__
    if cls is str:
        return _STR_LEN.get(value) or _remember_len(_STR_LEN, value, write(value))
    if cls is int:
        return _INT_LEN.get(value) or _remember_len(_INT_LEN, value, write(value))
    if cls is float and isfinite(value):
        return len(float.__repr__(value))
    return len(write(value))


def scoped_json(value: Any, write: Callable[[Any], str] = canonical_json) -> str:
    """``write(value)`` for an instance-scoped field (instance id, tag).

    An exact ``str`` — which every writer here emits alike — comes from
    the instance-scoped memo, at most :data:`SCOPED_MEMO_ENTRIES` texts,
    cleared when full; anything else is *write*'s call.  Its length sizes
    the field in :func:`~repro.net.codec.frame_size`.
    """
    if value.__class__ is not str:
        return write(value)
    text = _SCOPED_TEXT.get(value)
    if text is None:
        if len(_SCOPED_TEXT) >= SCOPED_MEMO_ENTRIES:
            _SCOPED_TEXT.clear()
        text = _SCOPED_TEXT[value] = _escape(value)
    return text


def leaf_json(value: Any, write: Callable[[Any], str]) -> str:
    """``write(value)``, straight from the leaf memo on a hit.

    For an exact ``str`` or ``int`` (and ``None``) every writer in this
    module emits the same text, so a field that is almost always such a
    leaf — a trace line's node ids, note and round — skips *write*'s
    dispatch; anything else, and a memo miss, is *write*'s call.
    """
    cls = value.__class__
    if cls is str:
        text = _STR_TEXT.get(value)
    elif cls is int:
        text = _INT_TEXT.get(value)
    elif value is None:
        return "null"
    else:
        return write(value)
    return text or write(value)


def to_jsonable_lossy(value: Any) -> Any:
    """Like :func:`to_jsonable`, but never fails.

    Values outside the wire-encodable domain are wrapped as
    :class:`Opaque` (their ``repr``).  This is the *definition* of the
    trace's lossy rule; the trace writers emit its text through
    :func:`lossy_json` and never build the tree.
    """
    try:
        return to_jsonable(value)
    except TransportError:
        return {TAG: "opaque", "text": repr(value)}


def lossy_json(value: Any) -> str:
    """Canonical JSON text of ``to_jsonable_lossy(value)``, without the tree.

    The trace's counterpart of the strict wire rule: "the trace can always
    be written" beats strictness, so a *field* any part of which raises
    :class:`~repro.exceptions.TransportError` becomes, as a whole, the
    ``opaque`` tag around ``repr(value)`` — never a partly encoded
    container.  The wire codec keeps raising so protocol bugs stay loud.
    """
    try:
        return canonical_json(value)
    except TransportError:
        return f'{{"__repro__":"opaque","text":{_escape(repr(value))}}}'


def payload_json(payload: Any) -> str:
    """``canonical_json(payload)``, from the payload memo when its text
    cannot change.

    Only a :class:`~repro.sim.messages.RelayPayload` whose hops are exact
    ``str`` and whose value is an exact ``str`` or ``V_d`` is looked up or
    held: such a payload equals another only if both write the same text
    (a ``str`` equals no number, ``V_d`` only itself), so ``1``, ``1.0``
    and ``True`` never alias, and nothing in it can be mutated.  Every
    other payload — a container above all — is re-read on every call.
    """
    if payload.__class__ is RelayPayload:
        value = payload.value
        path = payload.path
        if (value.__class__ is str or value is DEFAULT) and path.__class__ is tuple:
            for hop in path:
                if hop.__class__ is not str:
                    break
            else:
                key = (path, value)
                text = _PAYLOAD_TEXT.get(key)
                if text is None:
                    text = canonical_json(payload)
                    if len(text) <= PAYLOAD_MEMO_TEXT:
                        if len(_PAYLOAD_TEXT) >= PAYLOAD_MEMO_ENTRIES:
                            _PAYLOAD_TEXT.clear()
                        _PAYLOAD_TEXT[key] = text
                return text
    return canonical_json(payload)


def message_json(message: Message) -> str:
    """Canonical JSON text of one message (keys in sorted order)."""
    return (
        f'{{"destination":{canonical_json(message.destination)},'
        f'"payload":{payload_json(message.payload)},'
        f'"round_sent":{raw_json(message.round_sent)},'
        f'"source":{canonical_json(message.source)},'
        f'"tag":{scoped_json(message.tag, raw_json)}}}'
    )


#: Characters of a message's text around its fields.
MESSAGE_FIXED = len('{"destination":,"payload":,"round_sent":,"source":,"tag":}')


def message_json_len(message: Message) -> int:
    """``len(message_json(message))``, without writing the message's text.

    Reads the fields in :func:`message_json`'s order, so an unencodable
    field raises what :func:`message_json` raises.
    """
    return (
        MESSAGE_FIXED
        + json_len(message.destination)
        + len(payload_json(message.payload))
        + json_len(message.round_sent, raw_json)
        + json_len(message.source)
        + len(scoped_json(message.tag, raw_json))
    )


def message_from_jsonable(raw: dict) -> Message:
    """Inverse of :func:`message_json` on the parsed JSON object."""
    return Message(
        from_jsonable(raw["source"]),
        from_jsonable(raw["destination"]),
        from_jsonable(raw["payload"]),
        raw["round_sent"],
        raw["tag"],
    )

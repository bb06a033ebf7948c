"""Wire format for the async runtime: tagged JSON in length-prefixed frames.

Everything the agreement protocols put on the wire is reduced to JSON with
a small tagging scheme so the value domain survives a round trip exactly:

* the default value ``V_d`` (a process-local singleton) becomes
  ``{"__repro__": "vd"}`` and decodes back to the *same* singleton, so
  identity checks (``value is DEFAULT``) keep working on the receiving side;
* tuples — relay paths are tuples of node ids — are tagged so they do not
  collapse into lists;
* dicts are encoded as tagged item lists, which keeps non-string keys legal
  and makes the tag namespace collision-free (a user dict that happens to
  contain the key ``"__repro__"`` is *data*, never a tag);
* :class:`~repro.sim.messages.RelayPayload` gets its own tag so a decoded
  message is structurally identical to the sent one.

Frames are ``4-byte big-endian length + JSON bytes``.  JSON is emitted with
sorted keys and no whitespace, making encodings canonical — byte-identical
for equal frames — which the cross-runtime equivalence tests rely on.

Each frame is serialized **once** and without an intermediate tree:
:func:`encode_frame` writes the envelope's keys in sorted order around the
fragments of :func:`repro.sim.jsonable.canonical_json` (that module states
the kernel's invariants), byte for byte what ``json.dumps(sort_keys=True)``
gave — ``tests/net/reference_codec.py`` keeps that implementation as the
oracle.  The text is ASCII, so ``len(text)`` is the byte count, and
:func:`frame_size` gives that count without writing the text: the
envelope's fixed characters plus each field's text length, leaf lengths
from the leaf memo and payload texts from the payload memo that
:func:`encode_frame` fills too — and for a runner-built BATCH frame, the
envelope and message parts its round shares, remembered once per round.
A frame that never touches a wire — on :class:`~repro.net.transport.LocalBus`
— is sized, never written.

Envelope versioning: a frame that belongs to a multiplexed protocol
instance (:mod:`repro.serve`) carries ``"v": 2`` and its ``instance_id``
under ``"iid"``.  Single-instance frames omit both keys and are therefore
*byte-identical* to the pre-versioning wire format — version 1 is simply
the absence of the ``"v"`` key, so every legacy peer and every archived
byte stream still decodes (``Frame.instance is None``).  Unknown future
versions are rejected loudly rather than misparsed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.exceptions import TransportError
from repro.sim.jsonable import (
    MESSAGE_FIXED,
    TAG,
    canonical_json,
    from_jsonable,
    json_len,
    message_from_jsonable,
    message_json,
    message_json_len,
    payload_json,
    raw_json,
    scoped_json,
    to_jsonable,
)
from repro.sim.messages import Message

__all__ = [
    "BATCH",
    "DATA",
    "ENVELOPE_VERSIONS",
    "Frame",
    "FrameDecoder",
    "MARK",
    "MAX_FRAME_BYTES",
    "TAG",
    "decode_frame",
    "encode_frame",
    "frame_size",
    "from_jsonable",
    "pack_frame",
    "to_jsonable",
]

NodeId = Hashable

#: Frame kinds: protocol payload, end-of-round marker, or a per-link batch
#: coalescing both.
DATA = "data"
MARK = "mark"
BATCH = "batch"

#: Envelope versions this codec understands.  Version 1 is the legacy
#: unversioned format (no ``"v"`` key, no instance id); version 2 adds the
#: ``instance_id`` multiplexing field used by :mod:`repro.serve`.
ENVELOPE_VERSIONS = (1, 2)

_LENGTH = struct.Struct(">I")

#: Upper bound on a single frame body; anything larger is a protocol bug,
#: not a legitimate agreement message.
MAX_FRAME_BYTES = 1 << 24


@dataclass(frozen=True)
class Frame:
    """One transport-level unit: a message, a round marker, or a batch.

    ``kind == DATA`` carries a :class:`~repro.sim.messages.Message` in
    ``message``.  ``kind == MARK`` is an end-of-round marker: ``source``
    promises it has sent everything it will send in ``round_no``, letting
    receivers finish the round before the deadline.  A node whose markers
    are suppressed (crashed / muted) is only resolved by the deadline
    itself — the runtime's realization of "detectable absence".

    ``kind == BATCH`` coalesces one directed link's whole round: every DATA
    message from ``source`` to ``destination`` in ``round_no`` (in
    ``messages``, send order preserved) plus — when ``mark`` is true — the
    end-of-round marker.  One batch frame per link per round replaces one
    frame per protocol message plus a marker; DATA/MARK stay decodable, so
    batched and unbatched senders share one wire format.  An empty
    ``messages`` with ``mark`` set is a marker-only batch (the link carried
    no data this round but the source is still announcing it is done).

    ``sent_at`` is the sender's monotonic timestamp, stamped by the runner
    and used for latency percentiles (all endpoints share one clock since
    the runtime hosts every node in one process).  A round's BATCH frames
    share one: the instant the runner built them.

    ``instance`` identifies the protocol instance a frame belongs to when
    many agreement instances share one transport pair per link
    (:mod:`repro.serve`).  ``None`` — the default — means "the sole
    instance of a single-agreement run" and selects the legacy version-1
    envelope on the wire.

    ``seq`` is the per-directed-link sequence number stamped by
    :class:`~repro.net.supervision.SupervisedTransport` so a frame replayed
    across a reconnect is *deduplicated* at the receiver instead of
    double-delivered.  ``None`` — the default — means the link is
    unsupervised; the key is omitted from the encoding, keeping
    unsupervised frames byte-identical to the legacy wire format.

    ``trace`` is the optional trace-context field (:mod:`repro.trace`):
    the span id of the send that produced this frame, letting every layer
    the frame passes through — chaos injection, supervision healing, demux
    — attach its record to the causing span.  ``None`` — the default —
    omits the ``"tc"`` key, so untraced frames (and every archived v1/v2
    byte stream) encode and decode byte-identically to before.

    A frame hop builds three of these — the runner's, the supervisor's
    ``seq`` stamp and the decoder's — so ``__init__`` fills the instance
    dict directly instead of paying the generated frozen ``__init__``'s
    ``object.__setattr__`` per field; equality, hashing, ``repr`` and
    frozenness stay generated (``tests/net/test_codec.py::TestConstruction``
    pins the twin).
    """

    kind: str
    round_no: int
    source: NodeId
    destination: NodeId
    message: Optional[Message] = None
    sent_at: float = 0.0
    messages: Tuple[Message, ...] = field(default=())
    mark: bool = False
    instance: Optional[Hashable] = None
    seq: Optional[int] = None
    trace: Optional[str] = None

    def __init__(
        self, kind, round_no, source, destination, message=None, sent_at=0.0,
        messages=(), mark=False, instance=None, seq=None, trace=None,
    ) -> None:
        fields_ = self.__dict__
        fields_["kind"] = kind
        fields_["round_no"] = round_no
        fields_["source"] = source
        fields_["destination"] = destination
        fields_["message"] = message
        fields_["sent_at"] = sent_at
        fields_["messages"] = messages
        fields_["mark"] = mark
        fields_["instance"] = instance
        fields_["seq"] = seq
        fields_["trace"] = trace


# ----------------------------------------------------------------------
# Frame (de)serialization
# ----------------------------------------------------------------------
# The value codec itself (canonical_json / from_jsonable / the message
# helpers) lives in repro.sim.jsonable so execution traces can share the
# exact tagging scheme without importing the wire layer; this module
# re-exports to_jsonable / from_jsonable unchanged for compatibility.
#
# Wire grammar, keys in sorted order, bracketed parts only when set:
#   {"at":A,"dst":D[,"iid":I],"kind":K[,"mark":B,"msgs":[M,..]][,"msg":M],
#    "round":R[,"seq":Q],"src":S[,"tc":T][,"v":2]}
_V2_TAIL = ',"v":2}'
# Sizes of the fixed text around the fields, for frame_size.
_ENVELOPE_FIXED = len('{"at":,"dst":,"kind":,"round":,"src":}')
_DATA_FIXED = len(',"msg":')
_BATCH_FIXED = len(',"mark":,"msgs":[]')
_V2_FIXED = len(',"iid":') + len(_V2_TAIL) - len("}")
_SEQ_FIXED = len(',"seq":')
_TC_FIXED = len(',"tc":')


def encode_frame(frame: Frame) -> bytes:
    """Canonical JSON body for *frame* (no length prefix)."""
    kind = frame.kind
    try:
        if kind == DATA:
            if frame.message is None:
                raise TransportError("DATA frame without a message")
            content = f',"msg":{message_json(frame.message)}'
        elif kind == BATCH:
            messages = ",".join([message_json(m) for m in frame.messages])
            content = f',"mark":{raw_json(frame.mark)},"msgs":[{messages}]'
        else:
            content = ""
        # Only multiplexed frames pay for "iid"/"v" (version 2), only
        # supervised links for "seq", only traced frames for "tc": without
        # them the bytes are the legacy version-1 wire format.
        instance = frame.instance
        iid = "" if instance is None else f',"iid":{scoped_json(instance)}'
        seq = "" if frame.seq is None else f',"seq":{raw_json(frame.seq)}'
        tc = "" if frame.trace is None else f',"tc":{raw_json(frame.trace)}'
        tail = "}" if instance is None else _V2_TAIL
        text = (
            f'{{"at":{raw_json(frame.sent_at)},'
            f'"dst":{canonical_json(frame.destination)}{iid},'
            f'"kind":{raw_json(kind)}{content},'
            f'"round":{raw_json(frame.round_no)}{seq},'
            f'"src":{canonical_json(frame.source)}{tc}{tail}'
        )
        return text.encode("ascii")
    except (TypeError, ValueError) as exc:
        raise TransportError(f"frame not JSON-encodable: {exc}") from exc


#: Entries of each per-round part memo (envelopes, message parts).
ROUND_MEMO_ENTRIES = 256

# Field types whose equal values write equal text: a per-round part is
# keyed by a field's exact type and value, so 1, 1.0 and True never alias.
_KEYED_TYPES = frozenset((str, int, bool, type(None)))
_ENVELOPE_PARTS: Dict[tuple, int] = {}
_MESSAGE_PARTS: Dict[Tuple[int, str], int] = {}


def _remember_part(table: dict, key: tuple, size: int) -> int:
    if len(table) >= ROUND_MEMO_ENTRIES:
        table.clear()
    table[key] = size
    return size


def _round_batch_size(frame: Frame) -> Optional[int]:
    """The size of a runner-built BATCH frame from per-round parts, or
    ``None`` for any other frame.

    A round's BATCH frames share everything but their ids and messages:
    the envelope (``sent_at``, round, instance, mark) is sized once per
    round, and so is the part of a message that depends on its
    ``round_sent`` and tag alone.  A frame is left to the general path
    unless its ids are exact ``str``, its stamp a non-zero ``float``
    (``0.0`` and ``-0.0`` are equal but write differently), its round,
    instance and mark exact scalars of :data:`_KEYED_TYPES`, it has no
    ``seq`` or ``trace``, and every message goes from the frame's source
    to its destination under the first message's exact-``int`` round and
    exact-``str`` tag.  On such a frame only a payload can raise, and it
    raises in :func:`encode_frame`'s order.
    """
    source, destination, sent_at = frame.source, frame.destination, frame.sent_at
    if (
        frame.kind is not BATCH
        or source.__class__ is not str
        or destination.__class__ is not str
        or sent_at.__class__ is not float
        or not sent_at
        or frame.seq is not None
        or frame.trace is not None
    ):
        return None
    round_no, instance, mark = frame.round_no, frame.instance, frame.mark
    round_type, instance_type, mark_type = (
        round_no.__class__, instance.__class__, mark.__class__,
    )
    if (
        round_type not in _KEYED_TYPES
        or instance_type not in _KEYED_TYPES
        or mark_type not in _KEYED_TYPES
    ):
        return None
    messages = frame.messages
    if messages.__class__ is not tuple:
        return None
    key = (sent_at, round_type, round_no, instance_type, instance, mark_type, mark)
    size = _ENVELOPE_PARTS.get(key)
    if size is None:
        size = _ENVELOPE_FIXED + _BATCH_FIXED + len(BATCH) + 2
        size += json_len(sent_at, raw_json) + json_len(round_no, raw_json)
        size += json_len(mark, raw_json)
        if instance is not None:
            size += _V2_FIXED + len(scoped_json(instance))
        size = _remember_part(_ENVELOPE_PARTS, key, size)
    ids = json_len(source) + json_len(destination)
    if not messages:
        return size + ids
    first = messages[0]
    round_sent, tag = first.round_sent, first.tag
    if round_sent.__class__ is not int or tag.__class__ is not str:
        return None
    part = _MESSAGE_PARTS.get((round_sent, tag))
    if part is None:
        part = _remember_part(
            _MESSAGE_PARTS,
            (round_sent, tag),
            MESSAGE_FIXED + json_len(round_sent, raw_json) + len(scoped_json(tag)),
        )
    # Each message is its part, the frame's two ids and its payload; the
    # messages are joined by n - 1 commas.
    size += ids + len(messages) * (part + ids + 1) - 1
    for message in messages:
        other = message.source
        if other is not source and (other.__class__ is not str or other != source):
            return None
        other = message.destination
        if other is not destination and (
            other.__class__ is not str or other != destination
        ):
            return None
        other = message.round_sent
        if other is not round_sent and (
            other.__class__ is not int or other != round_sent
        ):
            return None
        other = message.tag
        if other is not tag and (other.__class__ is not str or other != tag):
            return None
        size += len(payload_json(message.payload))
    return size


def frame_size(frame: Frame) -> int:
    """``len(encode_frame(frame))``, without writing the frame's text.

    A runner-built BATCH frame is sized from per-round parts
    (:func:`_round_batch_size`); any other frame from the envelope's fixed
    characters plus each field's text length.  Either way fields are read
    in :func:`encode_frame`'s order and errors wrapped alike, so a frame
    :func:`encode_frame` rejects raises the same :class:`TransportError`.
    """
    kind = frame.kind
    try:
        size = _round_batch_size(frame)
        if size is not None:
            return size
        if kind == DATA:
            if frame.message is None:
                raise TransportError("DATA frame without a message")
            size = _DATA_FIXED + message_json_len(frame.message)
        elif kind == BATCH:
            lengths = [message_json_len(m) for m in frame.messages]
            size = sum(lengths) + max(0, len(lengths) - 1)
            size += _BATCH_FIXED + json_len(frame.mark, raw_json)
        else:
            size = 0
        instance = frame.instance
        if instance is not None:
            size += _V2_FIXED + len(scoped_json(instance))
        if frame.seq is not None:
            size += _SEQ_FIXED + json_len(frame.seq, raw_json)
        if frame.trace is not None:
            size += _TC_FIXED + json_len(frame.trace, raw_json)
        return (
            size
            + _ENVELOPE_FIXED
            + json_len(frame.sent_at, raw_json)
            + json_len(frame.destination)
            + json_len(kind, raw_json)
            + json_len(frame.round_no, raw_json)
            + json_len(frame.source)
        )
    except (TypeError, ValueError) as exc:
        raise TransportError(f"frame not JSON-encodable: {exc}") from exc


def decode_frame(data: bytes) -> Frame:
    """Inverse of :func:`encode_frame`.

    The body is parsed once and rebuilt in one flat pass.  A message of
    the usual shape is built directly: ``str`` node ids as parsed, and a
    relay payload over ``str`` hops with a ``str`` or ``V_d`` value is
    the one object the decode memo holds for its ``(path, value)``
    (:func:`~repro.sim.jsonable.payload_from_jsonable`, the mirror of the
    encode side's payload memo).  Every other shape is
    :func:`~repro.sim.jsonable.from_jsonable`'s walk.

    Every body that is not a frame raises :class:`TransportError` and
    nothing else: bytes that are not UTF-8 JSON, an unknown envelope
    version, a body that is not an object or lacks a key, a message that
    is not an object or lacks a field, an unknown wire tag, an empty relay
    path, or nesting too deep to walk.  A stream reader can therefore
    contain every poisoned body by catching :class:`TransportError` alone.
    The ``kind`` is not checked: a kind this codec does not build (an
    older peer's link probe) decodes, and the runner meters it as late.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TransportError(f"malformed frame: {exc}") from exc
    try:
        version = body.get("v", 1)
        if version not in ENVELOPE_VERSIONS:
            raise TransportError(
                f"unsupported frame envelope version {version!r} "
                f"(this codec understands {ENVELOPE_VERSIONS})"
            )
        kind = body["kind"]
        message = None
        messages: Tuple[Message, ...] = ()
        mark = False
        if kind == DATA:
            message = message_from_jsonable(body["msg"])
        elif kind == BATCH:
            messages = tuple([message_from_jsonable(raw) for raw in body["msgs"]])
            mark = bool(body["mark"])
        return Frame(
            kind,
            body["round"],
            from_jsonable(body["src"]),
            from_jsonable(body["dst"]),
            message,
            body["at"],
            messages,
            mark,
            from_jsonable(body["iid"]) if "iid" in body else None,
            body.get("seq"),
            body.get("tc"),
        )
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise TransportError(
            f"malformed frame: {type(exc).__name__}: {exc}"
        ) from exc


def pack_frame(frame: Frame) -> bytes:
    """Encode *frame* and prepend the 4-byte big-endian length prefix."""
    body = encode_frame(frame)
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(f"frame body too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental decoder for a length-prefixed frame stream.

    Feed arbitrary byte chunks (as they come off a socket); complete frames
    are returned as soon as their last byte arrives, partial data is
    buffered.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        frames, error = self.feed_tolerant(data)
        if error is not None:
            raise error
        return frames

    def feed_tolerant(
        self, data: bytes
    ) -> Tuple[List[Frame], Optional[TransportError]]:
        """Like :meth:`feed`, but never discards already-decoded frames.

        Returns every frame completed *before* the first poisoned one,
        plus the decode error itself (or ``None``).  After an error the
        stream is desynchronized — length-prefixed framing cannot resync —
        so the caller must abandon the stream; the decoder's buffer is
        cleared to make that state explicit.
        """
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Frame] = []
        error: Optional[TransportError] = None
        offset = 0
        # Walk an offset over one view of the buffer and drop the consumed
        # prefix once, after the view is released (an exported bytearray
        # cannot be resized); each body is copied out exactly once.
        view = memoryview(buffer)
        try:
            while len(view) - offset >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(view, offset)
                if length > MAX_FRAME_BYTES:
                    error = TransportError(f"frame length {length} exceeds limit")
                    break
                end = offset + _LENGTH.size + length
                if end > len(view):
                    break
                body = bytes(view[offset + _LENGTH.size : end])
                offset = end
                try:
                    frames.append(decode_frame(body))
                except TransportError as exc:
                    error = exc
                    break
        finally:
            view.release()
            if error is not None:
                buffer.clear()
            else:
                del buffer[:offset]
        return frames, error

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered while waiting for the rest of a frame."""
        return len(self._buffer)

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
:func:`encode_frame` fills too.  A frame that never touches a wire — on
:class:`~repro.net.transport.LocalBus` — is sized, never written.

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
from typing import Hashable, List, Optional, Tuple

from repro.exceptions import TransportError
from repro.sim.jsonable import (
    TAG,
    canonical_json,
    from_jsonable,
    json_len,
    message_from_jsonable,
    message_json,
    message_json_len,
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
    the runtime hosts every node in one process).

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


def frame_size(frame: Frame) -> int:
    """``len(encode_frame(frame))``, without writing the frame's text.

    The envelope's fixed characters plus each field's text length, read
    in :func:`encode_frame`'s order and wrapped alike, so a frame
    :func:`encode_frame` rejects raises the same :class:`TransportError`.
    """
    kind = frame.kind
    try:
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

    The body is parsed once and rebuilt in one flat pass:
    :func:`~repro.sim.jsonable.from_jsonable` hands scalars (node ids,
    path hops) back at its first check and rebuilds the hot payload shapes
    (relay, ``V_d``, tuple) with list comprehensions, not generators.

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

"""Benchmark-side span recorder for the traced run.

Nothing in ``src/`` is instrumented.  The traced run rebinds the layers'
entry points (patching every module that imported them by name), passes a
:class:`TimedTransport` shim as ``transport=``, and installs an asyncio
task factory, so that every stretch of CPU the single thread spends is
inside exactly one open span.  Spans are kept in memory as
``(sid, name, layer, start, end, parent_sid, op)`` and written only on
request (``--spans FILE``).

Two things make the numbers mean what they say on an event loop:

* a coroutine is recorded *per resume step*, not from first call to final
  return — the gap between two steps is other instances' work, which
  belongs to their spans;
* a layer's **self time** is its spans' duration minus the part covered by
  the spans opened inside them (``exit`` credits the child's duration to
  the parent), so nesting never counts a microsecond twice.

CPU no span covers — the event loop's own dispatch, socket callbacks — is
not guessed at: the runner reports it as ``eventloop.self_ms``, the
difference between the traced run's ``process_time`` and the spans' sum.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.transport import Transport

_now = time.perf_counter

#: First matching prefix of the path below ``repro/`` names the layer.
#: Layers are the package names the issue uses; ``serve`` is ``gateway``.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("serve/", "gateway"),
    ("net/runner", "runner"),
    ("net/adapters", "runner"),
    ("net/codec", "codec"),
    ("sim/jsonable", "codec"),
    ("net/metrics", "metrics"),
    ("obs/", "metrics"),
    ("trace/", "metrics"),
    ("net/", "transport"),
    ("core/", "core"),
    ("sim/", "core"),
    ("analysis/", "core"),
    ("explore/", "explore"),
    ("verify/", "verify"),
)

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_THIS_FILE = os.path.abspath(__file__)

#: Entry points the traced run rebinds: ``(module, dotted attribute, layer)``.
#: A name a later refactor removed is skipped and listed in the output, so
#: coverage loss shows up as a growing ``eventloop.self_ms`` instead of a
#: crash.  Coroutine functions are wrapped per resume step.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.gateway", "AgreementService.submit", "gateway"),
    ("repro.serve.mux", "InstanceMux.channel", "gateway"),
    ("repro.serve.mux", "InstanceChannel.send", "gateway"),
    ("repro.serve.mux", "InstanceChannel.recv", "gateway"),
    ("repro.serve.mux", "InstanceChannel.close", "gateway"),
    ("repro.net.runner", "AsyncRoundRunner.run", "runner"),
    ("repro.net.supervision", "SupervisedTransport.send", "transport"),
    ("repro.net.supervision", "SupervisedTransport.recv", "transport"),
    ("repro.net.codec", "encode_frame", "codec"),
    ("repro.net.codec", "decode_frame", "codec"),
    ("repro.net.codec", "FrameDecoder.feed_tolerant", "codec"),
    ("repro.core.protocol", "ProtocolSession.byz", "core"),
    ("repro.core.protocol", "ProtocolSession.expected_sources", "core"),
    ("repro.core.protocol", "ProtocolSession.collect_result", "core"),
    ("repro.core.protocol", "AgreementProcess.step", "core"),
    ("repro.core.protocol", "execute_degradable_protocol", "core"),
    ("repro.core.byz", "run_degradable_agreement", "core"),
    ("repro.core.eig", "EIGTree.resolve", "core"),
    ("repro.core.vote", "vote", "core"),
    ("repro.core.conditions", "classify", "core"),
    ("repro.sim.faults", "ByzantineRelayInjector.intercept", "core"),
    ("repro.net.metrics", "NetMetrics.counters", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_send", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_batch", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_round_duration", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_expected", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_latency", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_timeout", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_retry", "metrics"),
    ("repro.net.metrics", "NetMetrics.record_instance", "metrics"),
    ("repro.obs.events", "EventBus.publish", "metrics"),
    ("repro.explore.explorer", "explore", "explore"),
    ("repro.explore.explorer", "run_schedule", "explore"),
    ("repro.explore.transport", "ExploredTransport.send", "explore"),
    ("repro.explore.transport", "ExploredTransport.recv", "explore"),
    ("repro.verify.oracle", "verify_record", "verify"),
    ("repro.verify.record", "record_net_outcome", "verify"),
    ("repro.verify.record", "RunRecord.fingerprint", "verify"),
)


_layer_cache: Dict[str, Optional[str]] = {}


def layer_of_file(filename: str) -> Optional[str]:
    """Layer owning code in *filename*; ``None`` for stdlib and this file."""
    try:
        return _layer_cache[filename]
    except KeyError:
        pass
    layer: Optional[str] = None
    path = filename.replace(os.sep, "/")
    if "/repro/" in path:
        below = path.rsplit("/repro/", 1)[1]
        for prefix, name in _LAYER_PREFIXES:
            if below.startswith(prefix):
                layer = name
                break
    elif os.path.abspath(filename) != _THIS_FILE and os.path.abspath(
        filename
    ).startswith(_PERF_DIR):
        layer = "loadgen"
    _layer_cache[filename] = layer
    return layer


class Recorder:
    """In-memory span store with online self-time accounting."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[layer, start, child_s, op, sid, name]``.
        self.stack: List[list] = []
        #: Closed spans: ``(sid, name, layer, start, end, parent_sid, op)``.
        self.spans: List[tuple] = []
        #: Layer -> seconds spent in its spans and in no span inside them.
        self.self_s: Dict[str, float] = defaultdict(float)
        self._next_sid = 0

    def enter(self, name: str, layer: str, op=None) -> None:
        stack = self.stack
        if op is None and stack:
            op = stack[-1][3]
        sid = self._next_sid
        self._next_sid = sid + 1
        stack.append([layer, _now(), 0.0, op, sid, name])

    def exit(self) -> None:
        end = _now()
        stack = self.stack
        layer, start, child_s, op, sid, name = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        parent = None
        if stack:
            outer = stack[-1]
            outer[2] += duration
            parent = outer[4]
        self.spans.append((sid, name, layer, start, end, parent, op))

    def current_op(self):
        return self.stack[-1][3] if self.stack else None

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up)."""
        self.spans.clear()
        self.self_s.clear()

    def snapshot(self) -> dict:
        """What the timed region recorded, before the checks add to it."""
        return {"self_s": dict(self.self_s), "n_spans": len(self.spans)}

    # -- reading -------------------------------------------------------
    def first_start_by_op(self, name: str) -> Dict[object, float]:
        """Earliest start of a span called *name*, per op id."""
        out: Dict[object, float] = {}
        for _sid, span_name, _layer, start, _end, _parent, op in self.spans:
            if span_name == name and op is not None:
                if op not in out or start < out[op]:
                    out[op] = start
        return out

    def dump(self, path: str, limit: int) -> None:
        """Write the first *limit* spans, one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, layer, start, end, parent, op in self.spans[:limit]:
                handle.write(
                    json.dumps(
                        {
                            "sid": sid,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": None if op is None else str(op),
                        }
                    )
                )
                handle.write("\n")


class _Stepper:
    """Awaitable that drives *coro* and records each resume step as a span."""

    __slots__ = ("rec", "coro", "name", "layer", "op")

    def __init__(self, rec: Recorder, coro, name: str, layer: str, op) -> None:
        self.rec = rec
        self.coro = coro
        self.name = name
        self.layer = layer
        self.op = op

    def __await__(self):
        rec, coro = self.rec, self.coro
        name, layer, op = self.name, self.layer, self.op
        value = None
        error: Optional[BaseException] = None
        try:
            while True:
                rec.enter(name, layer, op)
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    rec.exit()
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    raise
                except BaseException as exc:  # cancellation, timeouts: re-thrown into coro
                    error = exc
        finally:
            coro.close()


async def _stepped(rec: Recorder, coro, name: str, layer: str, op):
    return await _Stepper(rec, coro, name, layer, op)


def _wrap(rec: Recorder, fn: Callable, name: str, layer: str, op_of=None):
    """Span-recording replacement for *fn*; *op_of(args, kwargs)* names the op."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def stepped(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None else None
            return await _Stepper(rec, fn(*args, **kwargs), name, layer, op)

        return stepped

    enter, leave = rec.enter, rec.exit

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        enter(name, layer, op_of(args, kwargs) if op_of is not None else None)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return timed


#: Entry points that know which op they serve.
_OP_OF = {
    "AsyncRoundRunner.run": lambda args, kwargs: getattr(args[0], "instance_id", None),
    "AgreementService.submit": lambda args, kwargs: kwargs.get("instance_id"),
}


def rebind(rec: Recorder, entries: Sequence[Tuple[str, str, str]] = ENTRY_POINTS) -> List[str]:
    """Replace every entry point with a span-recording wrapper.

    Module-level functions are replaced in every loaded module that holds a
    reference (``from x import f`` use sites included).  Returns the names
    that no longer exist, for the caller to print.
    """
    missing: List[str] = []
    for modname, path, layer in entries:
        *parents, leaf = path.split(".")
        try:
            owner = importlib.import_module(modname)
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[leaf]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{modname}.{path}")
            continue
        name = f"{layer}.{leaf}"
        op_of = _OP_OF.get(path)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(_wrap(rec, raw.__func__, name, layer)))
        elif isinstance(raw, staticmethod):
            setattr(owner, leaf, staticmethod(_wrap(rec, raw.__func__, name, layer)))
        elif parents:
            setattr(owner, leaf, _wrap(rec, raw, name, layer, op_of))
        else:
            wrapped = _wrap(rec, raw, name, layer)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is raw:
                        namespace[key] = wrapped
    return missing


def install_task_factory(rec: Recorder, loop: asyncio.AbstractEventLoop) -> None:
    """Record every step of every task whose coroutine a layer defines.

    Tasks started inside the program (gateway workers, the mux pump, the
    runner's gathered sends and collects, TCP connection handlers) have no
    entry point to rebind; their coroutine's source file names the layer.
    A task inherits the op id of the span that created it.
    """

    def factory(loop, coro, **kwargs):
        code = getattr(coro, "cr_code", None)
        layer = layer_of_file(code.co_filename) if code is not None else None
        if layer is not None:
            coro = _stepped(
                rec, coro, f"{layer}.{code.co_name}", layer, rec.current_op()
            )
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(factory)


def trace_virtual_loops(rec: Recorder) -> None:
    """Give every ``VirtualClockLoop`` the explorer creates the task factory."""
    from repro.explore.clock import VirtualClockLoop

    plain_init = VirtualClockLoop.__init__

    @functools.wraps(plain_init)
    def init(self, *args, **kwargs):
        plain_init(self, *args, **kwargs)
        install_task_factory(rec, self)

    VirtualClockLoop.__init__ = init


class TimedTransport(Transport):
    """``transport=`` shim: spans around the wire, and the frames it carried."""

    def __init__(self, inner: Transport, rec: Recorder) -> None:
        self.inner = inner
        self.rec = rec
        #: Every frame handed to the wire, for exact frame and byte counts.
        self.sent: List[object] = []

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def ordered_sends(self) -> bool:  # type: ignore[override]
        return self.inner.ordered_sends

    def attach_metrics(self, metrics) -> None:
        self.inner.attach_metrics(metrics)

    def attach_tracer(self, tracer) -> None:
        self.inner.attach_tracer(tracer)

    def round_opened(self, round_no, deadline, instance=None) -> None:
        self.inner.round_opened(round_no, deadline, instance)

    async def open(self, nodes) -> None:
        await self.inner.open(nodes)

    async def close(self) -> None:
        await self.inner.close()

    async def send(self, frame) -> int:
        self.sent.append(frame)
        return await _Stepper(
            self.rec, self.inner.send(frame), "transport.send", "transport",
            frame.instance,
        )

    async def recv(self, node):
        return await _Stepper(
            self.rec, self.inner.recv(node), "transport.recv", "transport", None
        )

    async def send_corrupted(self, frame, rng) -> int:
        return await self.inner.send_corrupted(frame, rng)

    def reset_connections(self, node=None) -> int:
        return self.inner.reset_connections(node)

    async def restart_endpoint(self, node) -> None:
        await self.inner.restart_endpoint(node)

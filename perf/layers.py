"""Per-layer costs that need no traced run.

* **Direct-call micro-costs** — one public function called in a loop on
  inputs captured from the workloads' own frames and trees, tracing off.
  Each is the best of five batches.
* **Wrapper toggles** — short ``serve_local_n5`` runs with exactly one
  public constructor argument changed, reported as CPU ms/op minus the
  plain run.
* **Deadline cost** — instances that really wait for a round deadline,
  kept out of every throughput workload: latency minus the deadline
  windows waited.
"""

from __future__ import annotations

import asyncio
import dataclasses
import statistics
import time

from repro.core.byz import run_degradable_agreement
from repro.core.eig import byz_resolver
from repro.core.protocol import ProtocolSession, execute_degradable_protocol
from repro.core.vote import vote
from repro.net.chaos.policy import ChaosPolicy, Crash
from repro.net.codec import (
    BATCH,
    DATA,
    FrameDecoder,
    decode_frame,
    encode_frame,
    pack_frame,
)
from repro.net.runner import run_agreement_async
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus
from repro.obs.events import EventBus
from repro.obs.prom import metrics_registry
from repro.trace import Tracer
from repro.verify import record_net_outcome, verify_record

import serve_local_n5
import serve_tcp_n7
from loadgen import ServeWorkload, closed_loop, run_serve, scenario_pool

_now = time.perf_counter


def best_us(fn, budget_s: float, batches: int = 5) -> float:
    """Microseconds per call of *fn*: the fastest of *batches* timed loops."""
    fn()
    started = _now()
    fn()
    once = max(_now() - started, 1e-7)
    calls = max(1, int(budget_s / batches / once))
    best = float("inf")
    for _ in range(batches):
        started = _now()
        for _ in range(calls):
            fn()
        best = min(best, (_now() - started) / calls)
    return best * 1e6


class _CapturingBus(LocalBus):
    """``LocalBus`` that keeps every frame it carried."""

    def __init__(self) -> None:
        super().__init__()
        self.frames = []

    async def send(self, frame) -> int:
        self.frames.append(frame)
        return await super().send(frame)


def _captured_frames(workload: ServeWorkload, seed: int, **overrides):
    bus = _CapturingBus()
    local = dataclasses.replace(workload, tcp=False)
    run_serve(
        local, seed, 0.05, overrides=overrides,
        transport_factory=lambda: bus, warmup_ops=0,
    )
    return bus.frames


def _largest_batch(frames):
    return max(
        (f for f in frames if f.kind == BATCH), key=lambda f: len(f.messages)
    )


def _resolve_case(m: int, u: int, n_nodes: int, seed: int):
    """A receiver's filled EIG tree from a run with ``u`` lying nodes."""
    workload = ServeWorkload(name="tree", m=m, u=u, n_nodes=n_nodes, pool_size=8)
    spec, nodes = workload.spec, workload.nodes
    pool = scenario_pool(seed, workload)
    scenario = next((s for s in pool if s.faults), pool[0])
    _result, engine = execute_degradable_protocol(
        spec, nodes, scenario.sender, scenario.value, scenario.behaviors,
        record_trace=False,
    )
    receiver = next(n for n in nodes if n != scenario.sender)
    tree = engine.processes[receiver].tree
    return lambda: tree.resolve(scenario.sender, m, byz_resolver)


def micro_costs(seed: int, budget_s: float) -> dict:
    """Direct-call costs of the codec, core, observation and verify layers."""
    n5, n7 = serve_local_n5.WORKLOAD, serve_tcp_n7.WORKLOAD
    frames5 = _captured_frames(n5, seed)
    frames7 = _captured_frames(n7, seed, supervise=True)
    batch5, batch7 = _largest_batch(frames5), _largest_batch(frames7)
    data = next(
        f for f in _captured_frames(n5, seed, batching=False) if f.kind == DATA
    )
    bytes5, bytes7, bytes_data = (
        encode_frame(batch5), encode_frame(batch7), encode_frame(data)
    )
    stream = b"".join(pack_frame(f) for f in frames7)
    stream *= max(1, (1 << 20) // len(stream))
    chunks = [stream[i : i + 4096] for i in range(0, len(stream), 4096)]

    def stream_decode():
        decoder = FrameDecoder()
        for chunk in chunks:
            decoder.feed(chunk)

    spec7, nodes7 = n7.spec, n7.nodes
    scenario7 = next(s for s in scenario_pool(seed, n7) if s.faults)
    spec5, nodes5 = n5.spec, n5.nodes
    outcome = asyncio.run(
        run_agreement_async(spec5, nodes5, nodes5[0], "attack", record_trace=True)
    )
    record = record_net_outcome(
        spec5, nodes5, nodes5[0], "attack", frozenset(), outcome
    )
    bus0, bus1, tracer = EventBus(), EventBus(), Tracer(seed)
    bus1.subscribe(lambda event: None)
    ballots = ["attack", "attack", "retreat", "attack", "attack"]

    def span():
        tracer.end(
            tracer.begin(
                "send", "runner", instance="op", round_no=1,
                source="n0", destination="n1",
            )
        )

    b = budget_s
    return {
        "codec.encode_batch_n5_us": best_us(lambda: encode_frame(batch5), b),
        "codec.encode_batch_n7_us": best_us(lambda: encode_frame(batch7), b),
        "codec.decode_batch_n5_us": best_us(lambda: decode_frame(bytes5), b),
        "codec.decode_batch_n7_us": best_us(lambda: decode_frame(bytes7), b),
        "codec.encode_data_us": best_us(lambda: encode_frame(data), b),
        "codec.decode_data_us": best_us(lambda: decode_frame(bytes_data), b),
        "codec.stream_decode_mb_per_s": len(stream) / best_us(stream_decode, b),
        "core.vote_us": best_us(lambda: vote(3, ballots), b),
        "core.eig_resolve_n5_us": best_us(_resolve_case(1, 2, 5, seed), b),
        "core.eig_resolve_n7_us": best_us(_resolve_case(2, 2, 7, seed), b),
        "core.eig_resolve_n10_us": best_us(_resolve_case(3, 3, 10, seed), b),
        "core.byz_functional_n7_us": best_us(
            lambda: run_degradable_agreement(
                spec7, nodes7, scenario7.sender, scenario7.value,
                scenario7.behaviors,
            ),
            b,
        ),
        "core.session_build_n7_us": best_us(
            lambda: ProtocolSession.byz(spec7, nodes7, nodes7[0], "attack"), b
        ),
        "sim.engine_run_n7_ms": best_us(
            lambda: execute_degradable_protocol(
                spec7, nodes7, scenario7.sender, scenario7.value,
                scenario7.behaviors, record_trace=False,
            ),
            b,
        ) / 1e3,
        "metrics.counters_us": best_us(outcome.metrics.counters, b),
        "obs.publish_0sub_us": best_us(
            lambda: bus0.publish("round_closed", round=1, messages=4), b
        ),
        "obs.publish_1sub_us": best_us(
            lambda: bus1.publish("round_closed", round=1, messages=4), b
        ),
        "obs.render_ms": best_us(
            lambda: metrics_registry(outcome.metrics, bus=bus1).render(), b
        ) / 1e3,
        "trace.span_us": best_us(span, b),
        "verify.record_ms": best_us(
            lambda: record_net_outcome(
                spec5, nodes5, nodes5[0], "attack", frozenset(), outcome
            ).fingerprint(),
            b,
        ) / 1e3,
        "verify.oracle_ms": best_us(lambda: verify_record(record), b) / 1e3,
    }


def wrapper_toggles(seed: int, seconds_each: float) -> dict:
    """CPU ms/op each wrapper adds to ``serve_local_n5``, one at a time."""
    base = serve_local_n5.WORKLOAD

    def cpu_ms_per_op(overrides=None, transport_factory=None) -> float:
        out = run_serve(
            base, seed, seconds_each, overrides=overrides,
            transport_factory=transport_factory, warmup_ops=8,
        )
        # The quietest 0.1 s slice: a toggle is a few tenths of a ms, and the
        # runs it is a difference of are seconds apart on a host whose speed
        # drifts; the quietest slices of two short runs differ least.
        return min(cpu / len(ops) for _wall, cpu, ops in out["slices"] if ops) * 1e3

    cpu_ms_per_op()  # discarded: the first run in a process is the cold one
    plain_before = cpu_ms_per_op()  # the plain run brackets the toggles
    toggled = {
        "wrap.supervision_cpu_ms": cpu_ms_per_op({"supervise": True}),
        "wrap.chaos_identity_cpu_ms": cpu_ms_per_op({"chaos": ChaosPolicy()}),
        "wrap.events_cpu_ms": cpu_ms_per_op({"events": EventBus()}),
        "wrap.tracer_cpu_ms": cpu_ms_per_op({"tracer": Tracer(seed)}),
        "wrap.record_trace_cpu_ms": cpu_ms_per_op({"record_trace": True}),
        "wrap.unbatched_cpu_ms": cpu_ms_per_op({"batching": False}),
        "wrap.tcp_cpu_ms": cpu_ms_per_op(transport_factory=TcpTransport),
    }
    unmeasured = cpu_ms_per_op(
        transport_factory=lambda: LocalBus(measure_bytes=False)
    )
    plain = min(plain_before, cpu_ms_per_op())
    out = {name: value - plain for name, value in toggled.items()}
    out["wrap.measure_bytes_cpu_ms"] = plain - unmeasured
    return out


def absence_overhead_ms(seed: int, instances: int) -> float:
    """Median latency beyond the deadline windows an absent node costs.

    One node's endpoint is dark from round 1 (``chaos.Crash``), so its
    peers ride out the real 0.1 s round deadline.  What is left after
    subtracting the windows waited is the runtime's own cost on the
    absence path — the number a deadline or virtual-clock change must not
    worsen.
    """
    timeout = 0.1
    workload = serve_local_n5.WORKLOAD
    nodes = workload.nodes
    pool = [s for s in scenario_pool(seed, workload) if s.sender != nodes[-1]]

    async def run() -> list:
        from repro.serve.gateway import AgreementService

        service = AgreementService(
            workload.spec, nodes, transport=LocalBus(), round_timeout=timeout,
            record_trace=False,
            chaos=ChaosPolicy(crashes=(Crash(node=nodes[-1], at_round=1),)),
        )
        done: list = []
        async with service:
            await closed_loop(
                service, pool, workload.clients, done, "absent", limit=instances
            )
        return done

    overheads = []
    for _index, latency_ms, outcome, _finished in asyncio.run(run()):
        windows = sum(
            1 for entry in outcome.metrics.rounds.values() if entry.timeouts
        )
        overheads.append(latency_ms - windows * timeout * 1e3)
    return statistics.median(overheads)


def measure(seed: int, seconds: float, quick: bool = False) -> dict:
    """Every metric of this module; *seconds* is the run's ``--seconds``."""
    out = micro_costs(seed, 0.02 if quick else seconds / 150)
    out.update(wrapper_toggles(seed, 0.15 if quick else seconds / 25))
    out["runner.absence_overhead_ms"] = absence_overhead_ms(
        seed, 8 if quick else 20
    )
    return out

"""The benchmark's own load generator and correctness gate for the service.

Drives ``AgreementService.submit`` / ``decision`` only.  Closed loop: a
fixed number of clients, each submitting its next instance when the
previous one decided.  Open loop: exponential inter-arrivals on *absolute*
due times; an op is timed from the moment it was due, so a stall delays —
and is charged to — every op due during it, and the generator's own
lateness is reported (``loadgen.lag_p99_ms``).

Inputs are a pool of scenarios generated from the seed; ops cycle through
it.  A quarter of the scenarios carry ``f in 1..u`` lying or two-faced
nodes.  None is silent on the wire, so no op waits for a round deadline:
deadline cost is measured separately (``runner.absence_overhead_ms``).

The gate runs after the timed region: every decision must equal
``execute_degradable_protocol``'s for the same scenario and satisfy its
D-tier under ``conditions.classify``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.behavior import (
    BehaviorMap,
    ConstantLiar,
    LieAboutSender,
    TwoFacedBehavior,
)
from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.exceptions import AdmissionError
from repro.net.codec import encode_frame
from repro.net.tcp import TcpTransport
from repro.net.transport import LocalBus
from repro.serve.gateway import AgreementService

from hostspeed import probe_ms

_now = time.perf_counter

VALUES = ("attack", "retreat", "hold", "regroup")
FAULT_KINDS = ("constant", "lie", "two-faced")
#: Share of scenarios that carry faulty nodes.
FAULTY_SHARE = 0.25
#: The open loop's arrival times are one fixed Poisson draw; ``--seed``
#: draws what arrives (senders, values, faults), not when.  A 3.2 s schedule
#: held 384 +- 20 arrivals and its own bursts, so with a schedule per seed
#: ``ops_per_s`` spread 9-10 % between seeds and the latency percentiles up
#: to 6 points more than between runs of one seed — sampling error of the
#: input, which no change to the program moves.
ARRIVAL_SEED = 20260930
#: Instances run, untimed, before the timed region (connections dialled,
#: code paths warm).  Their time counts toward ``setup_s``.
WARMUP_OPS = 32


@dataclass(frozen=True)
class ServeWorkload:
    """One service workload: the stack, the arrival process, the sizes."""

    name: str
    m: int
    u: int
    n_nodes: int
    tcp: bool = False
    supervise: bool = False
    #: Closed loop: concurrent clients.  Ignored when ``rate`` is set.
    clients: int = 4
    #: Open loop: arrivals per second; ``None`` selects the closed loop.
    rate: Optional[float] = None
    #: Latency limit for ``slo_miss_share`` (open loop only).
    slo_ms: Optional[float] = None
    #: Tail percentile, chosen so that at this host's rate >= 10 of the ops
    #: it is computed over lie beyond it.
    tail_q: float = 0.95
    pool_size: int = 240
    #: Seconds between host-speed probes; in the closed loop also the
    #: width of the slices the timed region is cut into (README.md, "Why
    #: every time is divided by the host's speed").
    slice_s: float = 0.1
    #: Ops per second of ``--seconds`` the traced run executes: a fixed
    #: count, so that span and wire counts repeat exactly.
    traced_ops_per_s: float = 100.0
    #: ``peak_rss_mb`` is read at the first probe after this many timed ops,
    #: not when the repeat ends: ``AgreementService`` keeps about 9 KB per
    #: instance it has served (47 -> 93 MB over 6 000), so at the end of a
    #: timed region a faster program would read as a fatter one.  A repeat
    #: that completes fewer ops reports its end.
    rss_after_ops: int = 800

    @property
    def spec(self) -> DegradableSpec:
        return DegradableSpec(m=self.m, u=self.u, n_nodes=self.n_nodes)

    @property
    def nodes(self) -> List[str]:
        return [f"n{i}" for i in range(self.n_nodes)]


@dataclass(frozen=True)
class Scenario:
    sender: str
    value: str
    #: ``(node, kind, claimed value)`` per faulty node.
    faults: Tuple[Tuple[str, str, str], ...]
    behaviors: Optional[BehaviorMap]

    @property
    def faulty(self) -> frozenset:
        return frozenset(node for node, _kind, _claim in self.faults)


def scenario_pool(seed: int, workload: ServeWorkload) -> List[Scenario]:
    """The seeded inputs: round-robin senders, drawn values, 25 % faulty."""
    rng = random.Random(seed)
    nodes = workload.nodes
    size = workload.pool_size
    faulty_slots = set(rng.sample(range(size), int(size * FAULTY_SHARE)))
    pool: List[Scenario] = []
    for index in range(size):
        sender = nodes[index % len(nodes)]
        value = rng.choice(VALUES)
        faults: Tuple[Tuple[str, str, str], ...] = ()
        if index in faulty_slots:
            count = rng.randint(1, workload.u)
            faults = tuple(
                (node, rng.choice(FAULT_KINDS), rng.choice(VALUES))
                for node in sorted(rng.sample(nodes, count))
            )
        behaviors: BehaviorMap = {}
        for node, kind, claim in faults:
            if kind == "constant":
                behaviors[node] = ConstantLiar(claim)
            elif kind == "lie":
                behaviors[node] = LieAboutSender(claim, sender)
            else:
                behaviors[node] = TwoFacedBehavior(
                    {
                        peer: (claim if k % 2 else "forged")
                        for k, peer in enumerate(nodes)
                    }
                )
        pool.append(Scenario(sender, value, faults, behaviors or None))
    return pool


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
async def closed_loop(
    service: AgreementService,
    pool: List[Scenario],
    clients: int,
    done: list,
    prefix: str,
    limit: Optional[int] = None,
    stop_at: Optional[float] = None,
) -> None:
    """*clients* callers, one outstanding instance each.

    Stops issuing after *limit* ops or once the clock passes *stop_at*;
    instances in flight are always finished and counted.
    """
    counter = itertools.count()

    async def client() -> None:
        while True:
            index = next(counter)
            if limit is not None and index >= limit:
                return
            if stop_at is not None and _now() >= stop_at:
                return
            scenario = pool[index % len(pool)]
            started = _now()
            iid = service.submit(
                scenario.sender,
                scenario.value,
                behaviors=scenario.behaviors,
                instance_id=f"{prefix}{index}",
            )
            outcome = await service.decision(iid)
            finished = _now()
            done.append((index, (finished - started) * 1e3, outcome, finished))

    await asyncio.gather(*(client() for _ in range(clients)))


async def open_loop(
    service: AgreementService,
    pool: List[Scenario],
    rate: float,
    done: list,
    refused: list,
    lags_ms: list,
    prefix: str,
    limit: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> None:
    """Submit on the schedule of absolute due times, whatever completes."""
    arrivals = random.Random(ARRIVAL_SEED)
    origin = _now()
    due = origin
    waiters = []

    async def wait(index: int, iid, due_at: float) -> None:
        outcome = await service.decision(iid)
        finished = _now()
        done.append((index, (finished - due_at) * 1e3, outcome, finished))

    for index in itertools.count():
        due += arrivals.expovariate(rate)
        if limit is not None and index >= limit:
            break
        if horizon_s is not None and due - origin > horizon_s:
            break
        # Always yield: a generator that is behind schedule must still let
        # the service run, or it would measure its own starvation.
        await asyncio.sleep(max(0.0, due - _now()))
        lags_ms.append((_now() - due) * 1e3)
        scenario = pool[index % len(pool)]
        try:
            iid = service.submit(
                scenario.sender,
                scenario.value,
                behaviors=scenario.behaviors,
                instance_id=f"{prefix}{index}",
            )
        except AdmissionError:
            refused.append(index)
            continue
        waiters.append(asyncio.ensure_future(wait(index, iid, due)))
    await asyncio.gather(*waiters)


def slices_of(start: tuple, ticks: list, done: list) -> list:
    """Cut the timed region at the ticks: ``[wall_s, cpu_s, [latency_ms...]]``.

    *start* is ``(wall, cpu)`` at the first timed op; a tick is ``(wall,
    cpu)`` before the host-speed probe and ``(wall, cpu)`` after it, so no
    slice contains a probe.  An op belongs to the slice it completed in.
    What ran after the last tick (the drain) is in no slice.
    """
    finished = sorted((at, latency) for _i, latency, _o, at in done)
    slices = []
    position = 0
    t0, c0 = start
    for t1, c1, t_next, c_next in ticks:
        latencies = []
        while position < len(finished) and finished[position][0] < t1:
            latencies.append(finished[position][1])
            position += 1
        slices.append([t1 - t0, c1 - c0, latencies])
        t0, c0 = t_next, c_next
    return slices


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def check_serve(
    workload: ServeWorkload,
    pool: List[Scenario],
    done: list,
    prefix: str,
    inject_failure: bool = False,
) -> List[str]:
    """Op ids whose decisions are wrong, missing their tier, or watchdogged.

    *inject_failure* corrupts one decision of the first op before checking
    — the self-test that proves the gate trips.
    """
    spec, nodes = workload.spec, workload.nodes
    expected: Dict[int, dict] = {}
    failures: List[str] = []
    for position, (index, _latency, outcome, _at) in enumerate(done):
        slot = index % len(pool)
        scenario = pool[slot]
        if slot not in expected:
            reference, _engine = execute_degradable_protocol(
                spec,
                nodes,
                scenario.sender,
                scenario.value,
                scenario.behaviors,
                record_trace=False,
            )
            expected[slot] = reference.decisions
        result = outcome.result
        if inject_failure and position == 0:
            wrong = dict(result.decisions)
            wrong[next(iter(wrong))] = "injected-wrong-decision"
            result = dataclasses.replace(result, decisions=wrong)
        report = classify(result, scenario.faulty, spec)
        if (
            result.decisions != expected[slot]
            or not report.satisfied
            or outcome.watchdogged
        ):
            failures.append(f"{workload.name}:{prefix}{index}")
    return failures


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_serve(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    rec=None,
    overrides: Optional[dict] = None,
    transport_factory=None,
    inject_failure: bool = False,
    warmup_ops: int = WARMUP_OPS,
) -> dict:
    """Build the service, warm it, run the timed region, check every op.

    With *rec* (a ``spans.Recorder``) the run is the traced one: a fixed
    op count, the ``TimedTransport`` shim under the service, every task
    step recorded.  *overrides* replace ``AgreementService`` constructor
    arguments (the wrapper toggles change exactly one).
    """
    return asyncio.run(
        _run_serve(
            workload, seed, seconds, rec, overrides or {}, transport_factory,
            inject_failure, warmup_ops,
        )
    )


async def _run_serve(
    workload, seed, seconds, rec, overrides, transport_factory,
    inject_failure, warmup_ops,
) -> dict:
    pool = scenario_pool(seed, workload)
    if transport_factory is not None:
        transport = transport_factory()
    else:
        transport = TcpTransport() if workload.tcp else LocalBus()
    shim = None
    if rec is not None:
        from spans import TimedTransport, install_task_factory

        install_task_factory(rec, asyncio.get_running_loop())
        shim = transport = TimedTransport(transport, rec)
    kwargs = dict(
        transport=transport,
        max_inflight=16,
        queue_limit=64,
        round_timeout=5.0,
        record_trace=False,
        supervise=workload.supervise,
    )
    kwargs.update(overrides)
    service = AgreementService(workload.spec, workload.nodes, **kwargs)
    limit = None
    if rec is not None:
        limit = max(8, int(workload.traced_ops_per_s * seconds))
    done: list = []
    refused: list = []
    lags_ms: list = []
    traced = None
    async with service:
        warm: list = []
        await closed_loop(
            service, pool, workload.clients, warm, "warm", limit=warmup_ops
        )
        if rec is not None:
            rec.reset()
            shim.sent.clear()
        timed_start = time.monotonic()
        wall0, cpu0 = _now(), time.process_time()
        ticks: list = []
        probes_ms: list = []
        rss_kb: list = []

        async def prober():
            while True:
                await asyncio.sleep(workload.slice_s)
                if not rss_kb and len(done) >= workload.rss_after_ops:
                    rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                before = (_now(), time.process_time())
                probes_ms.append(probe_ms())
                ticks.append(before + (_now(), time.process_time()))

        tick_task = asyncio.ensure_future(prober())
        if workload.rate is not None:
            await open_loop(
                service, pool, workload.rate, done, refused, lags_ms,
                "op", limit=limit,
                horizon_s=None if limit is not None else seconds,
            )
        else:
            await closed_loop(
                service, pool, workload.clients, done, "op", limit=limit,
                stop_at=None if limit is not None else wall0 + seconds,
            )
        wall_s, cpu_s = _now() - wall0, time.process_time() - cpu0
        tick_task.cancel()
        if not ticks:  # a region shorter than one slice is one slice
            before = (_now(), time.process_time())
            probes_ms.append(probe_ms())
            ticks.append(before + before)
        if rec is not None:
            traced = rec.snapshot()
        rejected = service.rejected_submits
    failures = check_serve(workload, pool, done, "op", inject_failure)
    failures += [f"{workload.name}:op{index}(refused)" for index in refused]
    latencies = [latency for _index, latency, _outcome, _at in done]
    attempted = len(done) + len(refused)
    out: dict = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": len(done),
        "attempted": attempted,
        "failures": failures,
        "latencies_ms": latencies,
        "lags_ms": lags_ms,
        "probes_ms": probes_ms,
        "open_loop": workload.rate is not None,
    }
    if rss_kb:
        out["peak_rss_mb"] = rss_kb[0] / 1024
    if workload.rate is None:
        out["slices"] = slices_of((wall0, cpu0), ticks, done)
    else:
        # One repeat is one pass over the arrival schedule: op i arrives at
        # the same offset, behind the same burst, in every repeat.  CPU
        # cannot be split per op; every op carries the repeat's mean.
        by_index = {index: latency for index, latency, _o, _at in done}
        mean_cpu_ms = cpu_s * 1e3 / len(done)
        out["passes"] = [
            [[[by_index.get(i, float("inf")), mean_cpu_ms]] for i in range(attempted)]
        ]
    if workload.slo_ms is not None:
        late = sum(1 for latency in latencies if latency > workload.slo_ms)
        out["slo_misses"] = late + len(refused)
    if rec is not None:
        out["traced"] = {
            **traced,
            "frames": len(shim.sent),
            # Sized with the send timestamp zeroed: its float width is the
            # only part of an encoding that differs between same-seed runs.
            "bytes": sum(
                len(encode_frame(dataclasses.replace(frame, sent_at=0.0)))
                for frame in shim.sent
            ),
            "rejections": rejected,
        }
    return out

"""The seeded service plan, how it is served, and its cross-check.

:func:`plan_workload` names one exact workload per ``(nodes, instances,
seed)``: senders cycle round-robin through the node set and values are
drawn from a small seeded vocabulary.  :func:`serve_plan` is what
``repro serve`` and ``repro trace --mode serve`` run: that plan submitted
in order to an (optionally chaotic, traced, scraped) service, waiting out
admission backpressure, each decision taken as it lands.
:func:`divergence_check` is the one cross-check of service decisions
against the synchronous engine, one outcome at a time.  Measuring the
service (throughput, latency percentiles) is the job of ``perf/``, not of
this module.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import Instance
from repro.core.spec import DegradableSpec
from repro.exceptions import AdmissionError
from repro.net.chaos.policy import seeded_policy
from repro.net.stack import make_transport
from repro.serve.gateway import AgreementService, InstanceOutcome

NodeId = Hashable

#: Seeded value vocabulary the plan draws sender values from.
VALUES: Tuple[str, ...] = ("attack", "retreat", "hold", "regroup")


def plan_workload(
    nodes: Sequence[NodeId], instances: int, seed: int
) -> List[Tuple[NodeId, object]]:
    """The seeded (sender, value) stream — round-robin senders, drawn values."""
    rng = random.Random(seed)
    return [
        (nodes[i % len(nodes)], rng.choice(VALUES)) for i in range(instances)
    ]


def divergence_check(
    spec: DegradableSpec, nodes: Sequence[NodeId]
) -> Callable[[InstanceOutcome], bool]:
    """A per-outcome cross-check against the synchronous reference engine.

    The sync engine is the repo's ground truth for the protocol; any
    mismatch means the service path (mux, shared transport, admission,
    concurrent scheduling) changed a decision — a correctness failure
    that must fail loudly.  The returned function answers whether one
    outcome's decisions diverge; it runs the engine once per distinct
    ``(sender, value)``.
    """
    expected_cache: Dict[Tuple[NodeId, object], dict] = {}

    def diverges(outcome: InstanceOutcome) -> bool:
        key = (outcome.sender, outcome.sender_value)
        if key not in expected_cache:
            reference, _ = execute_degradable_protocol(
                spec,
                nodes,
                outcome.sender,
                outcome.sender_value,
                record_trace=False,
            )
            expected_cache[key] = reference.decisions
        return outcome.decisions != expected_cache[key]

    return diverges


def check_divergence(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    outcomes: Iterable[InstanceOutcome],
) -> List[str]:
    """:func:`divergence_check` over *outcomes*: the diverging instance
    ids, sorted."""
    diverges = divergence_check(spec, nodes)
    return [
        outcome.instance_id
        for outcome in sorted(outcomes, key=lambda o: o.instance_id)
        if diverges(outcome)
    ]


async def serve_plan(
    instance: Instance,
    instances: int,
    seed: int,
    transport: str = "local",
    round_timeout: float = 2.0,
    severity: str = "",
    metrics_port: Optional[int] = None,
    linger: float = 0.0,
    announce=None,
    keep: Optional[Callable[[InstanceOutcome], object]] = None,
    **service_options,
) -> Tuple[AgreementService, List]:
    """Serve the seeded plan; return the service and what was kept.

    Builds an :class:`AgreementService` for *instance*'s ``(m, u, N)``
    (under the seeded *severity* chaos preset when one is named; extra
    keywords — ``max_inflight``, ``queue_limit``, ``tracer`` — go to its
    constructor) and submits :func:`plan_workload`'s *instances* entries in
    plan order.  Each decision is taken as it lands, before the service's
    window can evict it, and ``keep(outcome)`` — the outcome itself by
    default — is kept, in plan order: a caller that passes what it prints
    holds that, not every outcome.  At most ``max_inflight +
    queue_limit`` decisions wait to be taken.  A submit the admission
    bound rejects waits out the service's ``retry_after`` hint and is
    submitted again, so instance ids stay consecutive; within the bound
    the plan goes in as one burst.  With *metrics_port* set,
    ``/metrics`` + ``/healthz`` + ``/events`` are served for the duration
    of the run plus *linger* seconds (the scrape window for external
    collectors), and *announce* gets the bound endpoint as one line
    before the first submission.
    """
    spec, nodes = instance.spec(), instance.nodes()
    chaos = chaos_rng = None
    if severity:
        chaos, chaos_rng = seeded_policy(severity, spec, nodes, seed)
    events = obs_server = None
    if metrics_port is not None:
        from repro.obs.events import EventBus
        from repro.obs.http import ObsServer

        events = EventBus()
    service = AgreementService(
        spec,
        nodes,
        transport=make_transport(transport),
        events=events,
        chaos=chaos,
        chaos_rng=chaos_rng,
        round_timeout=round_timeout,
        **service_options,
    )
    if events is not None:
        obs_server = ObsServer.for_service(service, metrics_port)
        await obs_server.start()
        if announce is not None:
            announce(f"metrics: {obs_server.url}/metrics")
    kept: List = []
    landing: Deque["asyncio.Future"] = deque()
    bound = service.max_inflight + service.queue_limit

    async def take_oldest() -> None:
        outcome = await landing.popleft()
        kept.append(outcome if keep is None else keep(outcome))

    try:
        async with service:
            for sender, value in plan_workload(nodes, instances, seed):
                while True:
                    try:
                        iid = service.submit(sender, value)
                        break
                    except AdmissionError as exc:
                        await asyncio.sleep(exc.retry_after)
                landing.append(asyncio.ensure_future(service.decision(iid)))
                while landing and (landing[0].done() or len(landing) > bound):
                    await take_oldest()
            while landing:
                await take_oldest()
            if linger > 0:
                await asyncio.sleep(linger)
    finally:
        if obs_server is not None:
            await obs_server.close()
    return service, kept

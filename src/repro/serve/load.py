"""Seeded client load generator for the agreement service.

Drives an :class:`~repro.serve.gateway.AgreementService` with a stream of
agreement instances and reports what a service operator would want to
know: submit-to-decision latency percentiles, sustained throughput, how
often admission control pushed back — and, because this repo is a paper
reproduction first, whether every single service decision matches the
synchronous reference engine bit for bit (the generator's *divergence
gate*; a benchmark that silently computes wrong answers measures
nothing).

Two arrival models, both pure functions of ``seed``:

* **open loop** — submissions arrive on an exponential inter-arrival
  clock at ``rate`` per second, regardless of completions (the service's
  backpressure is part of what is being measured: a rejected submit is
  retried after the service's ``retry_after`` hint and counted);
* **closed loop** — ``concurrency`` synthetic clients each keep exactly
  one instance outstanding, submitting the next the moment the previous
  decides (latency under a fixed multiprogramming level).

Senders cycle round-robin through the node set and values are drawn from
a small seeded vocabulary (:func:`plan_workload`), so one ``(config,
seed)`` pair names one exact workload.  The report serializes to
``BENCH_serve.json`` (schema ``repro.bench.serve/v1``).

:func:`serve_plan` is the degenerate arrival model ``repro serve`` and
``repro trace --mode serve`` run: the same seeded plan submitted in one
burst to an (optionally chaotic, traced, scraped) service, every decision
awaited.  :func:`check_divergence` is the one cross-check of service
decisions against the synchronous engine, for either driver.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.protocol import execute_degradable_protocol
from repro.core.scenario import Instance
from repro.core.spec import DegradableSpec
from repro.exceptions import AdmissionError, ConfigurationError
from repro.net.chaos.policy import seeded_policy
from repro.net.stack import make_transport
from repro.net.transport import Transport
from repro.obs.stats import percentile
from repro.serve.gateway import AgreementService, InstanceOutcome

NodeId = Hashable

SCHEMA = "repro.bench.serve/v1"

#: Seeded value vocabulary the generator draws sender values from.
VALUES: Tuple[str, ...] = ("attack", "retreat", "hold", "regroup")


@dataclass(frozen=True)
class LoadConfig:
    """One exact workload: every field feeds the seeded generator."""

    m: int = 1
    u: int = 2
    n_nodes: int = 5
    instances: int = 64
    mode: str = "closed"  # "open" | "closed"
    #: Open loop: mean arrivals per second (exponential inter-arrivals).
    rate: float = 200.0
    #: Closed loop: synthetic clients with one outstanding instance each.
    concurrency: int = 8
    seed: int = 20260808
    transport: str = "local"  # "local" | "tcp"
    max_inflight: int = 16
    queue_limit: int = 64
    round_timeout: float = 5.0
    #: When set, the generator serves ``/metrics`` + ``/healthz`` on this
    #: port (0 = ephemeral) for the duration of the run, scrapes its own
    #: endpoint mid-run, and embeds the sample in the report
    #: (``metrics_sample``).  ``None`` disables the observability layer.
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ConfigurationError(
                f"unknown load mode {self.mode!r}; choose 'open' or 'closed'"
            )
        if self.transport not in ("local", "tcp"):
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; "
                f"choose 'local' or 'tcp'"
            )
        if self.instances < 1:
            raise ConfigurationError(
                f"instances must be >= 1, got {self.instances}"
            )
        if self.mode == "open" and self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.mode == "closed" and self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )

    @property
    def instance(self) -> Instance:
        """The ``(m, u, N)`` shape under load (senders and values come
        from the plan, not from here)."""
        return Instance(self.m, self.u, self.n_nodes)

    @property
    def spec(self) -> DegradableSpec:
        return self.instance.spec()


@dataclass
class LoadReport:
    """What one load run measured, JSON-serializable."""

    config: LoadConfig
    instances_done: int
    duration: float
    rejections: int
    latencies: Dict[str, float]
    #: Instance ids whose service decisions differ from the synchronous
    #: reference engine's (must be empty for the run to pass).
    divergences: List[str] = field(default_factory=list)
    dropped_submits: int = 0
    #: Mid-run ``/metrics`` self-scrape (``repro load --metrics-port``):
    #: ``{"endpoint", "port", "samples", "exposition": [lines...]}``.
    metrics_sample: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.divergences and self.dropped_submits == 0

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.instances_done / self.duration

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            # The workload, not where its endpoint happened to listen.
            "config": {
                key: value
                for key, value in asdict(self.config).items()
                if key != "metrics_port"
            },
            "instances_done": self.instances_done,
            "duration_s": round(self.duration, 6),
            "throughput_per_s": round(self.throughput, 3),
            "rejections": self.rejections,
            "dropped_submits": self.dropped_submits,
            "latency_s": self.latencies,
            "divergences": self.divergences,
            "ok": self.ok,
            "metrics_sample": self.metrics_sample,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# ``percentile`` is imported from repro.obs.stats above and re-exported
# here unchanged: the canonical nearest-rank implementation is shared
# with NetMetrics.latency_percentiles and the wire bench.


def latency_summary(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": round(percentile(samples, 0.50), 6),
        "p95": round(percentile(samples, 0.95), 6),
        "p99": round(percentile(samples, 0.99), 6),
        "mean": round(sum(samples) / len(samples), 6),
        "max": round(max(samples), 6),
    }


def plan_workload(
    nodes: Sequence[NodeId], instances: int, seed: int
) -> List[Tuple[NodeId, object]]:
    """The seeded (sender, value) stream — round-robin senders, drawn values."""
    rng = random.Random(seed)
    return [
        (nodes[i % len(nodes)], rng.choice(VALUES)) for i in range(instances)
    ]


def _observed_service(
    spec, nodes, transport: Transport, metrics_port, tracer=None, **options
):
    """An :class:`AgreementService` and, when *metrics_port* is set, the
    not-yet-started ``/metrics`` + ``/healthz`` + ``/events`` server over
    it (else ``None``)."""
    events = obs_server = None
    if metrics_port is not None:
        from repro.obs.events import EventBus
        from repro.obs.http import ObsServer

        events = EventBus()
    service = AgreementService(
        spec, nodes, transport=transport, events=events, tracer=tracer, **options
    )
    if events is not None:
        obs_server = ObsServer.for_service(service, events, metrics_port, tracer)
    return service, obs_server


async def run_load(
    config: LoadConfig,
    transport: Optional[Transport] = None,
    tracer=None,
    announce=None,
) -> LoadReport:
    """Run one seeded workload against a fresh service; return the report.

    *transport* overrides the config's transport choice (tests inject a
    prepared TcpTransport); by default ``"local"`` builds a LocalBus and
    ``"tcp"`` a TcpTransport.  *tracer* (a :class:`repro.trace.Tracer`)
    records admission→verdict spans across the run and adds the span
    families to the served ``/metrics``.  *announce* is called with one
    line as soon as the metrics endpoint is bound — with
    ``--metrics-port 0`` the ephemeral port is only known then, so CI
    parses this line instead of racing on a fixed port.
    """
    nodes = config.instance.nodes()
    workload = plan_workload(nodes, config.instances, config.seed)
    if transport is None:
        transport = make_transport(config.transport)
    service, obs_server = _observed_service(
        config.spec,
        nodes,
        transport,
        config.metrics_port,
        tracer,
        max_inflight=config.max_inflight,
        queue_limit=config.queue_limit,
        round_timeout=config.round_timeout,
        record_trace=False,
    )
    loop = asyncio.get_running_loop()
    rejections = 0
    dropped = 0
    outcomes: Dict[str, InstanceOutcome] = {}

    async def submit_with_backpressure(index: int) -> Optional[str]:
        """Submit one planned instance, honouring retry-after hints."""
        nonlocal rejections, dropped
        sender, value = workload[index]
        iid = f"load{index:04d}"
        for _ in range(8):
            try:
                return service.submit(sender, value, instance_id=iid)
            except AdmissionError as exc:
                rejections += 1
                await asyncio.sleep(max(0.001, exc.retry_after))
        dropped += 1
        return None

    metrics_sample: Optional[dict] = None

    async def self_scrape() -> None:
        """Scrape our own ``/metrics`` once, as soon as results exist.

        Runs concurrently with the workload so the sample reflects a
        *live* service (inflight gauges, partial counters), validates the
        exposition before embedding it, and never fails the run: a broken
        scrape just leaves ``metrics_sample`` unset.
        """
        nonlocal metrics_sample
        from repro.obs.http import scrape as obs_scrape
        from repro.obs.prom import parse_exposition

        for _ in range(400):  # bounded: ~2s worst case
            if service.outcomes:
                break
            await asyncio.sleep(0.005)
        try:
            status, body = await obs_scrape(obs_server.host, obs_server.port)
            if status != 200:
                return
            parse_exposition(body)  # embed only well-formed expositions
            lines = body.splitlines()
            metrics_sample = {
                "endpoint": f"{obs_server.url}/metrics",
                "port": obs_server.port,
                "samples": sum(
                    1 for ln in lines if ln and not ln.startswith("#")
                ),
                "exposition": lines,
            }
        except Exception:
            metrics_sample = None

    scrape_task: Optional["asyncio.Task"] = None
    started = loop.time()
    async with service:
        if obs_server is not None:
            await obs_server.start()
            if announce is not None:
                # The bound port is only known now (--metrics-port 0).
                announce(f"metrics: {obs_server.url}/metrics")
            scrape_task = asyncio.ensure_future(self_scrape())
        if config.mode == "open":
            arrival_rng = random.Random(config.seed + 1)
            submitted: List[str] = []
            for index in range(config.instances):
                iid = await submit_with_backpressure(index)
                if iid is not None:
                    submitted.append(iid)
                await asyncio.sleep(arrival_rng.expovariate(config.rate))
            for iid in submitted:
                outcomes[iid] = await service.decision(iid)
        else:
            next_index = 0
            index_lock = asyncio.Lock()

            async def client() -> None:
                nonlocal next_index
                while True:
                    async with index_lock:
                        index = next_index
                        if index >= config.instances:
                            return
                        next_index += 1
                    iid = await submit_with_backpressure(index)
                    if iid is None:
                        continue
                    outcomes[iid] = await service.decision(iid)

            await asyncio.gather(
                *(client() for _ in range(config.concurrency))
            )
        if scrape_task is not None:
            await scrape_task
    duration = loop.time() - started
    if obs_server is not None:
        await obs_server.close()

    divergences = check_divergence(config.spec, nodes, outcomes.values())
    return LoadReport(
        config=config,
        instances_done=len(outcomes),
        duration=duration,
        rejections=rejections,
        latencies=latency_summary([o.latency for o in outcomes.values()]),
        divergences=divergences,
        dropped_submits=dropped,
        metrics_sample=metrics_sample,
    )


def check_divergence(
    spec: DegradableSpec,
    nodes: Sequence[NodeId],
    outcomes: Iterable[InstanceOutcome],
) -> List[str]:
    """Compare every service decision to the synchronous reference engine.

    The sync engine is the repo's ground truth for the protocol; any
    mismatch means the service path (mux, shared transport, admission,
    concurrent scheduling) changed a decision — a correctness failure the
    benchmark must fail loudly on, whatever the latency numbers say.
    Returns the diverging instance ids, sorted.
    """
    divergences: List[str] = []
    expected_cache: Dict[Tuple[NodeId, object], dict] = {}
    for outcome in sorted(outcomes, key=lambda o: o.instance_id):
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
        if outcome.decisions != expected_cache[key]:
            divergences.append(outcome.instance_id)
    return divergences


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
    **service_options,
) -> Tuple[AgreementService, List[InstanceOutcome]]:
    """Serve the seeded plan in one burst; return the service and outcomes.

    Builds an :class:`AgreementService` for *instance*'s ``(m, u, N)``
    (under the seeded *severity* chaos preset when one is named; extra
    keywords — ``max_inflight``, ``queue_limit``, ``tracer`` — go to its
    constructor), submits :func:`plan_workload`'s *instances* submissions
    at once and awaits every decision, in submission order.  With
    *metrics_port* set, ``/metrics`` + ``/healthz`` + ``/events`` are
    served for the duration of the run plus *linger* seconds (the scrape
    window for external collectors), and *announce* gets the bound
    endpoint as one line before the first submission.
    """
    spec, nodes = instance.spec(), instance.nodes()
    chaos = chaos_rng = None
    if severity:
        chaos, chaos_rng = seeded_policy(severity, spec, nodes, seed)
    service, obs_server = _observed_service(
        spec,
        nodes,
        make_transport(transport),
        metrics_port,
        chaos=chaos,
        chaos_rng=chaos_rng,
        round_timeout=round_timeout,
        **service_options,
    )
    if obs_server is not None:
        await obs_server.start()
        if announce is not None:
            announce(f"metrics: {obs_server.url}/metrics")
    try:
        async with service:
            iids = [
                service.submit(sender, value)
                for sender, value in plan_workload(nodes, instances, seed)
            ]
            decided = [await service.decision(iid) for iid in iids]
            if linger > 0:
                await asyncio.sleep(linger)
    finally:
        if obs_server is not None:
            await obs_server.close()
    return service, decided

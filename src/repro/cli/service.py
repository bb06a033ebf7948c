"""The multi-instance agreement service, driven and snapshotted.

* ``serve`` — N node daemons over one shared transport pair per link,
  many concurrent agreement instances multiplexed on it, per-instance
  verdicts and aggregate wire metrics;
* ``load``  — a seeded open-/closed-loop client load generator against
  that service: latency percentiles and throughput into
  ``BENCH_serve.json``, gated on every decision matching the
  synchronous reference engine;
* ``stats`` — a one-shot observability snapshot of a recorded artifact
  (``BENCH_serve.json`` or a trace record); ``--prom`` emits Prometheus
  text exposition, so recorded runs scrape into the same dashboards as
  the live ``--metrics-port`` endpoint of the other two.
"""

from __future__ import annotations

from repro.cli import (
    _add_seed_argument,
    _add_spec_arguments,
    _add_wire_arguments,
    _checked,
    _count,
    _instance,
    _n_nodes,
    _verb,
)
from repro.exceptions import ConfigurationError

_port = _checked("--metrics-port", int, "in 0..65535", lambda v: 0 <= v <= 65535)


def register(sub) -> None:
    p = _verb(
        sub, "serve", _cmd_serve,
        "run a multi-instance agreement service over one shared "
        "transport and print per-instance verdicts",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=2.0)
    _add_seed_argument(p, 0, "seeds the instance value draw")
    p.add_argument("--instances", type=_count("--instances"), default=8,
                   help="concurrent agreement instances to submit")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="instances allowed to run concurrently")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admitted instances allowed to wait behind them")
    p.add_argument("--chaos", default="", metavar="SEVERITY",
                   help="wrap the shared transport in seeded chaos "
                        "(light/heavy/partition/crash); each instance is "
                        "judged against its own charged fault set")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the synchronous-engine decision cross-check "
                        "(skipped automatically under chaos)")
    p.add_argument("--trace", default="",
                   help="record the whole service run to this JSONL file "
                        "(repro verify demultiplexes it)")
    p.add_argument("--metrics-port", type=_port, default=None,
                   metavar="PORT",
                   help="serve /metrics + /healthz + /events on this port "
                        "for the duration of the run (0 = ephemeral; the "
                        "bound endpoint is printed on stdout)")
    p.add_argument("--metrics-linger", type=float, default=0.0,
                   metavar="SECONDS",
                   help="keep the metrics endpoint up this long after the "
                        "instances finish (scrape window for external "
                        "collectors and the CI gate)")

    p = _verb(
        sub, "load", _cmd_load,
        "drive the agreement service with a seeded client load "
        "generator and write BENCH_serve.json",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=5.0)
    _add_seed_argument(p, 20260808, "seeds arrivals and value draws")
    p.add_argument("--instances", type=int, default=64,
                   help="total agreement instances to push through")
    p.add_argument("--mode", default="closed", choices=["open", "closed"],
                   help="open loop (exponential arrivals at --rate) or "
                        "closed loop (--concurrency clients, one "
                        "outstanding instance each)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="open loop: mean arrivals per second")
    p.add_argument("--concurrency", type=int, default=8,
                   help="closed loop: synthetic clients")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="instances allowed to run concurrently")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admitted instances allowed to wait behind them")
    p.add_argument("--quick", action="store_true",
                   help="small workload (the CI gate)")
    p.add_argument("--out", default="BENCH_serve.json",
                   help="write the JSON report here ('' to skip)")
    p.add_argument("--metrics-port", type=_port, default=None,
                   metavar="PORT",
                   help="serve /metrics during the run (0 = ephemeral), "
                        "self-scrape it mid-run, and embed the sample in "
                        "the report")

    p = _verb(
        sub, "stats", _cmd_stats,
        "render a one-shot observability snapshot from a recorded "
        "artifact (BENCH_serve.json / trace JSONL)",
    )
    p.add_argument("artifact", metavar="FILE",
                   help="artifact to snapshot")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead of the "
                        "human-readable table")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import check_divergence, record_service_run, serve_plan

    instance = _instance(args)
    spec = instance.spec()
    service, outcomes = asyncio.run(serve_plan(
        instance,
        args.instances,
        args.seed,
        transport=args.transport,
        round_timeout=args.timeout,
        severity=args.chaos,
        metrics_port=args.metrics_port,
        linger=args.metrics_linger,
        # External scrapers (and the CI gate) parse this line; keep
        # it first and flushed so they see it before the run ends.
        announce=lambda line: print(line, flush=True),
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
    ))
    print(f"{spec}; {len(outcomes)} instance(s) multiplexed over one "
          f"'{service.aggregate_metrics.transport}' transport"
          + (f" under '{args.chaos}' chaos" if args.chaos else ""))
    for outcome in outcomes:
        status = "ok " if outcome.ok else "FAIL"
        print(f"  [{status}] {outcome.instance_id}  sender={outcome.sender} "
              f"value={outcome.sender_value!r}  tier={outcome.tier} "
              f"f_eff={len(outcome.afflicted)}  "
              f"latency={outcome.latency * 1000:.1f}ms")
    print()
    print(service.aggregate_metrics.render())
    ok = all(outcome.ok for outcome in outcomes)
    if not args.no_verify and not args.chaos:
        diverged = check_divergence(spec, instance.nodes(), outcomes)
        for iid in diverged:
            print(f"  !! {iid}: decisions diverge from the synchronous engine")
        print()
        print("synchronous-engine cross-check: "
              + ("decisions identical" if not diverged
                 else f"{len(diverged)} instance(s) MISMATCH"))
        ok = ok and not diverged
    if args.trace:
        record_service_run(service).save(args.trace)
        print(f"service trace recorded to {args.trace}")
    print("service: " + ("ALL INSTANCES SATISFIED THEIR TIER" if ok
                         else "CONTRACT VIOLATED"))
    return 0 if ok else 1


def _cmd_load(args) -> int:
    import asyncio

    from repro.serve import LoadConfig, run_load

    instances = args.instances
    concurrency = args.concurrency
    if args.quick:
        instances = min(instances, 32)
        concurrency = min(concurrency, 8)
    config = LoadConfig(
        m=args.m,
        u=args.u,
        n_nodes=_n_nodes(args),
        instances=instances,
        mode=args.mode,
        rate=args.rate,
        concurrency=concurrency,
        seed=args.seed,
        transport=args.transport,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        round_timeout=args.timeout,
        metrics_port=args.metrics_port,
    )
    print(f"load: {config.mode} loop, {config.instances} instance(s), "
          f"(m={config.m}, u={config.u}, N={config.n_nodes}) over "
          f"'{config.transport}', seed={config.seed}")
    # The announce hook surfaces the *bound* metrics endpoint the moment
    # it exists (--metrics-port 0 picks an ephemeral port), so scrapers
    # and the CI gate parse this line instead of racing on a fixed port.
    report = asyncio.run(run_load(
        config, announce=lambda line: print(f"  {line}", flush=True)
    ))
    latency = report.latencies
    print(f"  done={report.instances_done}  "
          f"throughput={report.throughput:.1f}/s  "
          f"rejections={report.rejections}  "
          f"dropped={report.dropped_submits}")
    print(f"  latency p50={latency['p50'] * 1000:.1f}ms  "
          f"p95={latency['p95'] * 1000:.1f}ms  "
          f"p99={latency['p99'] * 1000:.1f}ms  "
          f"max={latency['max'] * 1000:.1f}ms")
    if report.metrics_sample:
        print(f"  metrics: {report.metrics_sample['samples']} sample(s) "
              f"self-scraped mid-run from "
              f"{report.metrics_sample['endpoint']}")
    if report.divergences:
        print(f"  !! {len(report.divergences)} instance(s) diverged from "
              f"the synchronous engine: {report.divergences[:5]}")
    if args.out:
        report.save(args.out)
        print(f"  report written to {args.out}")
    if report.ok:
        print("load: PASSED (all decisions match the synchronous engine)")
        return 0
    print("load: FAILED")
    return 1


def _cmd_stats(args) -> int:
    from repro.obs import render_snapshot

    try:
        text, ok = render_snapshot(args.artifact, prom=args.prom)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc
    print(text)
    return 0 if ok else 1

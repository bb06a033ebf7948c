"""The multi-instance agreement service, driven and snapshotted.

* ``serve`` — N node daemons over one shared transport pair per link,
  many concurrent agreement instances multiplexed on it, per-instance
  verdicts and aggregate wire metrics;
* ``stats`` — a one-shot observability snapshot of a recorded trace
  record; ``--prom`` emits Prometheus text exposition, so recorded runs
  scrape into the same dashboards as the live ``--metrics-port``
  endpoint of ``serve``.
"""

from __future__ import annotations

from repro.cli import (
    _add_seed_argument,
    _add_spec_arguments,
    _add_wire_arguments,
    _checked,
    _count,
    _instance,
    _verb,
)

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
                   help="agreement instances to submit, in plan order (a "
                        "submit past the admission bound waits and retries)")
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
        sub, "stats", _cmd_stats,
        "render a one-shot observability snapshot from a recorded "
        "trace record (JSONL)",
    )
    p.add_argument("artifact", metavar="FILE",
                   help="artifact to snapshot")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead of the "
                        "human-readable table")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import divergence_check, record_service_run, serve_plan

    instance = _instance(args)
    spec = instance.spec()
    diverges = None
    if not args.no_verify and not args.chaos:
        diverges = divergence_check(spec, instance.nodes())

    def printed(outcome):
        """What the verb prints of one outcome: all it keeps of it."""
        status = "ok " if outcome.ok else "FAIL"
        line = (f"  [{status}] {outcome.instance_id}  sender={outcome.sender} "
                f"value={outcome.sender_value!r}  tier={outcome.tier} "
                f"f_eff={len(outcome.afflicted)}  "
                f"latency={outcome.latency * 1000:.1f}ms")
        diverged = diverges is not None and diverges(outcome)
        return line, outcome.ok, outcome.instance_id if diverged else None

    service, lines = asyncio.run(serve_plan(
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
        keep=printed,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
    ))
    print(f"{spec}; {len(lines)} instance(s) multiplexed over one "
          f"'{service.aggregate_metrics.transport}' transport"
          + (f" under '{args.chaos}' chaos" if args.chaos else ""))
    for line, _ok, _diverged in lines:
        print(line)
    print()
    print(service.aggregate_metrics.render())
    ok = all(instance_ok for _line, instance_ok, _diverged in lines)
    if diverges is not None:
        diverged = sorted(iid for _line, _ok, iid in lines if iid is not None)
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


def _cmd_stats(args) -> int:
    from repro.obs import render_snapshot

    print(render_snapshot(args.artifact, prom=args.prom))
    return 0

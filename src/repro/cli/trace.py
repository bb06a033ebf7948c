"""``trace`` — record a causal span trace of one seeded run.

One ``net`` instance or a ``serve`` multi-instance run, optionally under
chaos or the kill-links soak; exported as lossless span JSONL plus a
Perfetto-loadable Chrome trace, with the per-round critical path ("round
3 dominated by retry backoff on link S->p2").  Span ids derive from the
seed and logical coordinates only, so same-seed traces are bit-identical
and tracing never perturbs the run it observes.
"""

from __future__ import annotations

from repro.cli import (
    _add_seed_argument,
    _add_spec_arguments,
    _add_wire_arguments,
    _count,
    _instance,
    _verb,
)
from repro.exceptions import ConfigurationError


def register(sub) -> None:
    p = _verb(
        sub, "trace", _cmd_trace,
        "record a causal span trace of one seeded run and render "
        "its per-round critical path (exports span JSONL + "
        "Perfetto-loadable JSON)",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=0.5)
    _add_seed_argument(
        p, 0, "seeds chaos, supervision backoff and every span id"
    )
    p.add_argument("--mode", default="net", choices=["net", "serve"],
                   help="net: one traced agreement instance; serve: a "
                        "traced multi-instance service run")
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--instances", type=_count("--instances"), default=4,
                   help="serve mode: concurrent agreement instances")
    p.add_argument("--chaos", default="", metavar="SEVERITY",
                   help="run under seeded chaos "
                        "(light/heavy/partition/crash)")
    p.add_argument("--kill-links", action="store_true",
                   help="net mode: the self-healing soak — hard-reset "
                        "every connection at each relay round and "
                        "crash-restart one seeded victim's endpoint, "
                        "under a reconnecting supervisor (implies "
                        "'light' chaos unless --chaos says otherwise)")
    p.add_argument("--spans", default="TRACE_spans.jsonl",
                   help="write the lossless span log here ('' to skip)")
    p.add_argument("--perfetto", default="TRACE_perfetto.json",
                   help="write the Chrome-trace-event JSON here — open "
                        "it at https://ui.perfetto.dev ('' to skip)")
    p.add_argument("--record", default="",
                   help="also record the repro.verify trace here and "
                        "cross-check its TIMEOUT records against the "
                        "span-side deadline ride-outs")


def _cmd_trace(args) -> int:
    from repro.trace import Tracer, trace_report

    if args.mode == "serve" and args.kill_links:
        raise ConfigurationError("--kill-links is a net-mode soak "
                                 "(the service runs its own supervision)")
    instance = _instance(args)
    severity = args.chaos or ("light" if args.kill_links else "")
    tracer = Tracer(seed=args.seed)
    traced = _traced_net if args.mode == "net" else _traced_service
    record = traced(args, instance, severity, tracer)
    if args.record:
        record.save(args.record)
        print(f"  verify trace recorded to {args.record}")
    lines, ok = trace_report(
        tracer, record.trace.events, args.spans, args.perfetto
    )
    print()
    print("\n".join(lines))
    return 0 if ok else 1


def _traced_net(args, instance, severity, tracer):
    """Run and print net mode; return the run's verify record."""
    import asyncio

    from repro.net.chaos import run_seeded_instance
    from repro.verify import record_net_outcome

    spec, nodes = instance.spec(), instance.nodes()
    # The chaos campaign's recipe: a (seed, severity) pair here
    # reproduces that campaign trial's schedule.
    outcome, afflicted, tier = asyncio.run(run_seeded_instance(
        instance, args.transport, args.timeout, severity, args.seed,
        args.kill_links, tracer=tracer,
    ))
    print(f"{spec}; traced net run, seed={args.seed}"
          + (f", '{severity}' chaos" if severity else "")
          + (", kill-links soak" if args.kill_links else ""))
    if afflicted:
        print(f"  f_eff={len(afflicted)} "
              f"afflicted={sorted(str(a) for a in afflicted)} tier={tier}")
    for node in nodes[1:]:
        print(f"  {node} -> {outcome.result.decisions[node]!r}")
    return record_net_outcome(spec, nodes, "S", args.value, afflicted, outcome)


def _traced_service(args, instance, severity, tracer):
    """Run and print serve mode; return the run's verify record."""
    import asyncio

    from repro.serve import record_service_run, serve_plan

    def printed(outcome):
        status = "ok " if outcome.ok else "FAIL"
        return (f"  [{status}] {outcome.instance_id}  "
                f"sender={outcome.sender} tier={outcome.tier}  "
                f"latency={outcome.latency * 1000:.1f}ms")

    service, lines = asyncio.run(serve_plan(
        instance, args.instances, args.seed,
        transport=args.transport, round_timeout=args.timeout,
        severity=severity, tracer=tracer, keep=printed,
    ))
    print(f"{instance.spec()}; traced service run, seed={args.seed}, "
          f"{len(lines)} instance(s)"
          + (f", '{severity}' chaos" if severity else ""))
    for line in lines:
        print(line)
    return record_service_run(service)

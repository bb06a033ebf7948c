"""One agreement instance with chosen faults, classified against D.1–D.4.

* ``run`` — on the synchronous engine (``--verbose`` narrates it,
  ``--trace`` records it for ``repro verify``);
* ``net`` — over the asyncio runtime (in-process bus or real TCP sockets),
  with the wire metrics and a synchronous-engine cross-check.
"""

from __future__ import annotations

from repro.cli import _add_spec_arguments, _add_wire_arguments, _instance, _verb
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import classify
from repro.core.scenario import FAULT_KINDS
from repro.exceptions import ConfigurationError


def register(sub) -> None:
    p = _verb(sub, "run", _cmd_run, "execute one agreement instance")
    _add_spec_arguments(p)
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated faulty node ids (S, p1, p2, ...)")
    p.add_argument("--adversary", default="lie", choices=list(FAULT_KINDS))
    p.add_argument("--verbose", action="store_true",
                   help="narrate the full execution (messages and ballots)")
    p.add_argument("--trace", default="",
                   help="record the execution to this JSONL file "
                        "(auditable with 'repro verify')")

    p = _verb(
        sub, "net", _cmd_net,
        "run one agreement over the async runtime (LocalBus/TCP)",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    _add_wire_arguments(p, timeout=2.0)
    p.add_argument("--value", default="alpha", help="sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated faulty node ids (S, p1, p2, ...)")
    p.add_argument("--adversary", default="lie",
                   choices=[*FAULT_KINDS, "crash"],
                   help="'crash' mutes nodes at the wire level, forcing real "
                        "round-deadline timeouts")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the synchronous-engine cross-check")
    p.add_argument("--trace", default="",
                   help="record the execution to this JSONL file "
                        "(auditable with 'repro verify')")


def _build_instance(args):
    """Shared (spec, nodes, faulty, behaviors) setup for run/net commands.

    The ``crash`` adversary maps to no behaviour — the caller realizes it
    as a :class:`~repro.sim.faults.CrashInjector`.
    """
    faulty = {f for f in args.faulty.split(",") if f}
    instance = _instance(
        args,
        []
        if args.adversary == "crash"
        else sorted((node, args.adversary) for node in faulty),
    )
    unknown = faulty - set(instance.nodes())
    if unknown:
        raise ConfigurationError(f"unknown node ids: {sorted(unknown)}")
    return instance.spec(), instance.nodes(), faulty, instance.behaviors()


def _print_decisions(spec, nodes, faulty, result, where: str = ""):
    """Classify *result* and print the per-receiver verdict table."""
    report = classify(result, faulty, spec)
    print(f"{spec}; f={len(faulty)} ({report.regime} regime){where}")
    for node in nodes[1:]:
        marker = "x" if node in faulty else " "
        print(f"  [{marker}] {node} -> {result.decisions[node]!r}")
    print(f"shape: {report.shape.value}")
    return report


def _contract_exit(report, ok: bool) -> int:
    if ok:
        print("contract: SATISFIED")
        return 0
    print("contract: VIOLATED")
    for violation in report.violations:
        print(f"  !! {violation}")
    return 1


def _cmd_run(args) -> int:
    spec, nodes, faulty, behaviors = _build_instance(args)
    if args.verbose:
        from repro.core.narrate import narrate_execution

        print(narrate_execution(
            spec, nodes, "S", args.value, behaviors, faulty=faulty
        ))
        result = run_degradable_agreement(spec, nodes, "S", args.value, behaviors)
        report = classify(result, faulty, spec)
        return 0 if report.satisfied else 1
    if args.trace:
        from repro.core.protocol import execute_degradable_protocol
        from repro.verify import record_sync_run

        result, engine = execute_degradable_protocol(
            spec, nodes, "S", args.value, behaviors
        )
        record_sync_run(
            spec, nodes, "S", args.value, faulty, engine
        ).save(args.trace)
        print(f"trace recorded to {args.trace}")
    else:
        result = run_degradable_agreement(
            spec, nodes, "S", args.value, behaviors
        )
    report = _print_decisions(spec, nodes, faulty, result)
    return _contract_exit(report, report.satisfied)


def _cmd_net(args) -> int:
    import asyncio

    from repro.core.protocol import execute_degradable_protocol
    from repro.net import make_transport, run_agreement_async
    from repro.sim.faults import CrashInjector

    spec, nodes, faulty, behaviors = _build_instance(args)
    # One description of the crash for the run and for its cross-check:
    # the lock-step engine simply never asks an injector about markers.
    crashed = args.adversary == "crash" and faulty
    crash = [CrashInjector(faulty)] if crashed else None
    outcome = asyncio.run(
        run_agreement_async(
            spec, nodes, "S", args.value,
            behaviors=behaviors,
            transport=make_transport(args.transport),
            extra_injectors=crash,
            round_timeout=args.timeout,
        )
    )
    result = outcome.result
    if args.trace:
        from repro.verify import record_net_outcome

        record_net_outcome(
            spec, nodes, "S", args.value, faulty, outcome
        ).save(args.trace)
        print(f"trace recorded to {args.trace}")
    report = _print_decisions(
        spec, nodes, faulty, result,
        f" over transport '{outcome.metrics.transport}'",
    )
    print()
    print(outcome.metrics.render())
    ok = report.satisfied
    if not args.no_verify:
        sync_result, _ = execute_degradable_protocol(
            spec, nodes, "S", args.value, behaviors, extra_injectors=crash
        )
        matches = sync_result.decisions == result.decisions
        print()
        print("synchronous-engine cross-check: "
              + ("decisions identical" if matches else "MISMATCH"))
        if not matches:
            for node, value in sorted(sync_result.decisions.items()):
                if result.decisions.get(node) != value:
                    print(f"  {node}: sync={value!r} "
                          f"async={result.decisions.get(node)!r}")
        ok = ok and matches
    return _contract_exit(report, ok)

"""``chaos`` — soak the async runtime under seeded network chaos.

Loss, duplication, reordering, corruption, partitions and crashes, with
the paper's D.1–D.4 guarantee tiers asserted against the chaos actually
injected; ``--kill-links`` soaks the self-healing layer and ``--replay``
reruns one trial from its token.
"""

from __future__ import annotations

from repro.cli import _add_seed_argument, _add_wire_arguments, _count, _verb


def register(sub) -> None:
    p = _verb(
        sub, "chaos", _cmd_chaos,
        "soak the async runtime under seeded network chaos",
    )
    _add_seed_argument(p, 0, "campaign seed; every trial seed derives from it")
    p.add_argument("--severity", default="light",
                   choices=["light", "heavy", "partition", "crash", "all"],
                   help="chaos preset to sweep ('all' runs every preset)")
    p.add_argument("--trials", type=_count("--trials"), default=10,
                   help="trials per severity preset")
    _add_wire_arguments(p, timeout=0.25)
    p.add_argument("--report", default="",
                   help="write the full JSON campaign report here")
    p.add_argument("--kill-links", action="store_true",
                   help="soak the self-healing layer: hard-reset every TCP "
                        "connection at each relay round and crash-restart "
                        "one node's endpoint mid-run, under a reconnecting "
                        "supervisor; the campaign runs twice with the same "
                        "seed and the wire fingerprints (reconnect counters "
                        "included) must be identical")
    p.add_argument("--replay", default="",
                   help="replay one trial from a failure's replay token "
                        "(overrides every other option)")


def _cmd_chaos(args) -> int:
    from repro.net.chaos import (
        SEVERITIES,
        parse_replay,
        run_campaign_sync,
        run_trial_sync,
    )

    if args.replay:
        result = run_trial_sync(parse_replay(args.replay))
        print(result.render())
        return 1 if result.failed else 0

    severities = list(SEVERITIES) if args.severity == "all" else [args.severity]
    print(f"chaos campaign: seed={args.seed} transport={args.transport} "
          f"severities={','.join(severities)} trials/severity={args.trials}"
          + (" kill-links soak" if args.kill_links else ""))
    report = run_campaign_sync(
        args.seed,
        severities,
        args.trials,
        transport=args.transport,
        timeout=args.timeout,
        progress=lambda result: print(result.line()),
        kill_links=args.kill_links,
    )
    print()
    print(report.render())
    if args.report:
        report.save(args.report)
        print(f"  report written to {args.report}")
    print(report.verdict())
    return 0 if report.ok else 1

"""The checkers: audit a recorded run, fuzz the runtimes, explore schedules.

* ``verify``  — audit a recorded trace offline: re-derive every
  fault-free node's vote tree from the recorded deliveries and check vote
  arithmetic, round structure, absence→V_d accounting and the D.1–D.4
  tier; multi-instance service traces are demultiplexed automatically;
* ``fuzz``    — differential fuzzing: sample small instances ×
  behaviours × chaos seeds, run each over sync / local-bus / tcp ×
  batched / unbatched, and feed every trace through the verify oracle
  plus cross-mode decision equivalence;
* ``explore`` — deterministic schedule-space exploration: run the real
  async runner on a virtual clock, enumerate per-frame
  delivery/drop/stall/defer decisions to a deviation bound with
  partial-order pruning, judge every execution with the verify oracle,
  and shrink any violation to a minimal replayable schedule token.
"""

from __future__ import annotations

from repro.cli import (
    _add_seed_argument,
    _add_spec_arguments,
    _add_wire_arguments,
    _count,
    _n_nodes,
    _verb,
)
from repro.core.scenario import FAULT_KINDS, fault_pairs
from repro.exceptions import ConfigurationError


def register(sub) -> None:
    p = _verb(
        sub, "verify", _cmd_verify,
        "audit a recorded trace against the conformance oracle",
    )
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="trace files written by 'repro run/net --trace'")
    p.add_argument("--quiet", action="store_true",
                   help="only print failures")

    p = _verb(
        sub, "fuzz", _cmd_fuzz,
        "differential fuzzing across sync/local/tcp x batched/unbatched",
    )
    p.add_argument("--quick", action="store_true",
                   help="small example budget (the CI gate)")
    _add_seed_argument(p, 0, "fuzzing seed; fully determines the sampled cases")
    p.add_argument("--examples", type=_count("--examples"), default=None,
                   help="example budget (default 20, or 6 with --quick)")
    p.add_argument("--transport", default="all",
                   choices=["local", "tcp", "all"],
                   help="net transports to fuzz (default: both)")
    p.add_argument("--no-chaos", action="store_true",
                   help="sample only chaos-free cases")
    p.add_argument("--replay", default="",
                   help="replay one case from a failure's replay token "
                        "(overrides sampling options)")

    p = _verb(
        sub, "explore", _cmd_explore,
        "deterministic schedule-space exploration on a virtual clock",
    )
    _add_spec_arguments(p, m_default=1, u_default=2)
    p.add_argument("--value", default="alpha", help="the sender's value")
    p.add_argument("--faulty", default="",
                   help="comma-separated node:kind behaviour faults "
                        f"(kinds: {', '.join(FAULT_KINDS)})")
    p.add_argument("--depth", type=int, default=2,
                   help="max non-default schedule choices per execution")
    p.add_argument("--budget", type=int, default=200,
                   help="max executions before the campaign stops")
    p.add_argument("--keep-going", action="store_true",
                   help="enumerate every violation instead of stopping "
                        "at the first")
    _add_wire_arguments(p, timeout=1.0, transports=False)
    p.add_argument("--supervise", action="store_true",
                   help="explore through the self-healing supervision layer")
    p.add_argument("--inject-vote-bug", type=int, default=0, metavar="OFFSET",
                   help="skew every resolver's vote threshold by OFFSET "
                        "(test hook: the explorer must catch the violation)")
    p.add_argument("--replay", default="",
                   help="re-execute one schedule from a violation's replay "
                        "token (overrides every other option)")


def _cmd_verify(args) -> int:
    from repro.verify import RunRecord, demux_record, verify_record

    failures = 0
    for path in args.traces:
        record = RunRecord.load(path)
        # A multi-instance service record is split into one auditable
        # record per agreement instance; single-instance records (stamped
        # or legacy) pass through unchanged.
        sub_records = demux_record(record)
        for instance_id, sub in sorted(
            sub_records.items(), key=lambda kv: str(kv[0])
        ):
            label = path if instance_id is None else f"{path}[{instance_id}]"
            report = verify_record(sub)
            if report.ok:
                if not args.quiet:
                    print(f"{label}: OK ({report.render().splitlines()[0]})")
            else:
                failures += 1
                print(f"{label}: FAILED")
                print(report.render())
        if len(sub_records) > 1 and not args.quiet:
            print(f"{path}: demultiplexed {len(sub_records)} instance(s)")
    if failures:
        print(f"{failures} trace(s)/instance(s) failed conformance")
        return 1
    if not args.quiet:
        print(f"{len(args.traces)}/{len(args.traces)} trace(s) conformant")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.verify.fuzz import parse_case_token, run_case, run_fuzz

    transports = (
        ("local", "tcp") if args.transport == "all" else (args.transport,)
    )
    if args.replay:
        case = parse_case_token(args.replay)
        outcome = run_case(case, transports=transports)
        print(outcome.render())
        return 0 if outcome.ok else 1
    examples = args.examples
    if examples is None:
        examples = 6 if args.quick else 20
    report = run_fuzz(
        seed=args.seed,
        max_examples=examples,
        transports=transports,
        allow_chaos=not args.no_chaos,
        on_case=None if args.quick else (lambda o: print(o.render())),
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_explore(args) -> int:
    from repro.explore import ExploreConfig, explore, run_token

    if args.replay:
        outcome = run_token(args.replay)
        print(outcome.render())
        return 0 if outcome.ok else 1

    try:
        # The faults= token field's conversion; a bare node means "lie".
        faults = fault_pairs(args.faulty, ",", "lie")
    except ValueError as exc:
        raise ConfigurationError(f"--faulty: {exc}") from exc
    config = ExploreConfig(
        m=args.m,
        u=args.u,
        n_nodes=_n_nodes(args),
        sender_value=args.value,
        faults=faults,
        round_timeout=args.timeout,
        supervise=args.supervise,
        vote_offset=args.inject_vote_bug,
    )
    config.behaviors()  # surface unknown nodes/kinds as a usage error
    report = explore(
        config,
        depth_bound=args.depth,
        budget=args.budget,
        stop_at_first=not args.keep_going,
    )
    print(report.render())
    return 0 if report.ok else 1

"""The paper's own results as verbs: tables, bounds, witnesses, batteries.

* ``table`` / ``tradeoff``      — the Section 2 minimum-node table and the
  maximal (m, u) configurations for a node budget;
* ``scenarios`` / ``connectivity`` — the Theorem 2 triple and the Theorem 3
  pair, at and below their bounds;
* ``reliability`` / ``complexity`` — correct/safe/unsafe probabilities for
  a design, and the cost of surviving u faults;
* ``search``                    — exhaustive adversary search (m = 1);
* ``mission``                   — fly the Figure 1(b) channel system;
* ``clocksync``                 — the degradable clock-sync conjecture;
* ``suite`` / ``experiments`` / ``report`` — the golden scenario suite, the
  E1..E9 battery, and every table and figure as one markdown report.
"""

from __future__ import annotations

from repro.cli import _add_seed_argument, _count, _verb
from repro.exceptions import ConfigurationError


def register(sub) -> None:
    _verb(sub, "table", _cmd_table, "Section 2 minimum-node table")

    p = _verb(sub, "tradeoff", _cmd_tradeoff, "maximal (m,u) configs for a node budget")
    p.add_argument("nodes", type=int)

    p = _verb(
        sub, "scenarios", _cmd_scenarios, "Theorem 2 triple at and below the bound"
    )
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-u", type=int, required=True)

    p = _verb(
        sub, "connectivity", _cmd_connectivity, "Theorem 3 pair at and below the bound"
    )
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-u", type=int, required=True)

    p = _verb(sub, "reliability", _cmd_reliability, "correct/safe/unsafe probabilities")
    p.add_argument("nodes", type=int)
    p.add_argument("-p", "--p-node", type=float, default=0.03)

    p = _verb(sub, "complexity", _cmd_complexity, "cost of surviving u faults")
    p.add_argument("-u", type=int, required=True)

    p = _verb(sub, "search", _cmd_search, "exhaustive adversary search (m=1)")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("--below", action="store_true",
                   help="search one node below the bound instead")

    p = _verb(sub, "mission", _cmd_mission, "fly the Figure 1(b) channel system")
    p.add_argument("--steps", type=_count("--steps"), default=300)
    p.add_argument("-p", "--fault-probability", type=float, default=0.05)
    _add_seed_argument(p, 0, "seeds the transient-fault draw")

    p = _verb(
        sub, "report", _cmd_report,
        "regenerate every table/figure into one markdown report",
    )
    p.add_argument("-o", "--out", default="",
                   help="write the report here (default: stdout)")
    p.add_argument("--no-battery", action="store_true",
                   help="skip the experiment battery header")

    p = _verb(
        sub, "clocksync", _cmd_clocksync,
        "evaluate the degradable clock-sync conjecture",
    )
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-u", type=int, default=2)
    p.add_argument("-n", "--nodes", type=int, default=None)

    p = _verb(
        sub, "suite", _cmd_suite,
        "run a scenario suite (built-in golden set by default)",
    )
    p.add_argument("path", nargs="?", default="",
                   help="JSON scenario-suite file; omit for the reference suite")
    p.add_argument("--save", default="",
                   help="write the reference suite JSON to this path and exit")

    p = _verb(
        sub, "experiments", _cmd_experiments,
        "run the quick experiment battery (E1..E9)",
    )
    p.add_argument("--only", default="",
                   help="comma-separated experiment ids (default: all)")
    p.add_argument("--out", default="",
                   help="write JSON results to this path")


def _cmd_table(args) -> int:
    from repro.analysis import section2_min_nodes_table

    print(section2_min_nodes_table())
    return 0


def _cmd_tradeoff(args) -> int:
    from repro.analysis import seven_node_tradeoff_table

    print(seven_node_tradeoff_table(args.nodes))
    return 0


def _cmd_scenarios(args) -> int:
    from repro.analysis.lowerbounds import theorem2_case

    below, at, witnessed = theorem2_case(args.m, args.u)
    print(below.summary())
    print(at.summary())
    print(
        "Theorem 2 witnessed: breaks below the bound, holds at it."
        if witnessed
        else "UNEXPECTED: Theorem 2 pattern not observed"
    )
    return 0 if witnessed else 1


def _cmd_connectivity(args) -> int:
    from repro.analysis.lowerbounds import theorem3_case

    below, at, witnessed = theorem3_case(args.m, args.u)
    print(f"connectivity {at.connectivity}: "
          f"{'holds' if at.both_satisfied else 'BREAKS'}")
    print(f"connectivity {below.connectivity}: "
          f"{'breaks' if not below.both_satisfied else 'HOLDS (unexpected)'}")
    return 0 if witnessed else 1


def _cmd_reliability(args) -> int:
    from repro.analysis import compare_configurations, log_bar_chart, render_table

    points = compare_configurations(args.nodes, args.p_node)
    rows = [
        [f"{p.m}/{p.u}", p.n_nodes, p.p_correct, p.p_safe_degraded, p.p_unsafe]
        for p in points
    ]
    print(render_table(
        ["config", "nodes", "P(correct)", "P(safe degraded)", "P(unsafe)"],
        rows,
        title=f"{args.nodes} nodes, per-node fault probability {args.p_node}",
    ))
    print("\nP(unsafe), log scale:")
    print(log_bar_chart([(f"{p.m}/{p.u}", p.p_unsafe) for p in points]))
    return 0


def _cmd_complexity(args) -> int:
    from repro.analysis import log_bar_chart, render_table
    from repro.analysis.complexity import survive_u_costs

    points, _ = survive_u_costs(args.u)
    rows = [
        ["OM" if p.algorithm == "OM" else f"BYZ(m={p.m})", p.n_nodes, p.rounds,
         p.messages]
        for p in points
    ]
    print(render_table(
        ["algorithm", "nodes", "rounds", "messages"],
        rows,
        title=f"Cost of surviving u={args.u} faults safely",
    ))
    print("\nmessages, log scale:")
    print(log_bar_chart([(str(r[0]), float(r[3])) for r in rows], floor=1.0))
    return 0


def _cmd_search(args) -> int:
    from repro.analysis.adversary_search import search_case

    result, witnessed = search_case(args.u, below=args.below)
    print(f"1/{args.u}-degradable at N={result.spec.n_nodes}: "
          f"{result.profiles_checked} adversary profiles checked")
    if result.contract_unbreakable:
        print("no violating adversary exists over the 3-symbol domain")
    else:
        witness = result.violations[0]
        print(f"violation found: faulty={witness.faulty}")
        for violation in witness.report.violations:
            print(f"  {violation}")
    return 0 if witnessed else 1


def _cmd_mission(args) -> int:
    from repro.analysis import bar_chart
    from repro.analysis.reliability import fly_mission

    stats, safe = fly_mission(args.steps, args.fault_probability, args.seed)
    print(bar_chart([
        ("forward", stats.forward),
        ("recovered", stats.recovered),
        ("safe stops", stats.safe_stops),
        ("unsafe", stats.unsafe),
    ], width=40))
    print(f"availability {stats.availability:.3f}, safety {stats.safety:.3f}")
    return 0 if safe else 1


def _cmd_report(args) -> int:
    from repro.analysis import generate_report, write_report

    if args.out:
        write_report(args.out, include_battery=not args.no_battery)
        print(f"report written to {args.out}")
    else:
        print(generate_report(include_battery=not args.no_battery))
    return 0


def _cmd_clocksync(args) -> int:
    from repro.clocksync.evaluation import evaluate_conjecture
    from repro.core.spec import DegradableSpec

    n = args.nodes if args.nodes is not None else 2 * args.m + args.u + 2
    spec = DegradableSpec(m=args.m, u=args.u, n_nodes=n)
    evaluation = evaluate_conjecture(spec)
    print(evaluation.render())
    return 0 if evaluation.all_hold else 1


def _cmd_suite(args) -> int:
    from repro.analysis import ScenarioSuite, reference_suite

    if args.save:
        reference_suite().save(args.save)
        print(f"reference suite written to {args.save}")
        return 0
    if args.path:
        try:
            suite = ScenarioSuite.load(args.path)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read suite {args.path!r}: {exc}"
            ) from exc
    else:
        suite = reference_suite()
    runs = suite.run()
    for run in runs:
        status = "PASS" if run.ok else "FAIL"
        print(f"[{status}] {run.scenario.name}: shape={run.report.shape.value}")
        for violation in run.report.violations:
            print(f"    !! {violation}")
        for node, actual in run.mismatches.items():
            print(f"    golden mismatch at {node}: got {actual!r}")
    failures = [r for r in runs if not r.ok]
    print(f"{len(runs) - len(failures)}/{len(runs)} scenarios passed")
    return 0 if not failures else 1


def _cmd_experiments(args) -> int:
    from repro.analysis import run_experiments, summarize, write_results

    only = [e for e in args.only.split(",") if e] or None
    results = run_experiments(only)
    print(summarize(results))
    if args.out:
        write_results(results, args.out)
        print(f"results written to {args.out}")
    return 0 if all(r.passed for r in results) else 1

"""repro.explore — deterministic schedule-space exploration.

A virtual-clock model checker for the async BYZ runtime: the real
:class:`~repro.net.runner.AsyncRoundRunner` stack runs on a
:class:`~repro.explore.clock.VirtualClockLoop` (no wall clock) over an
:class:`~repro.explore.transport.ExploredTransport` (no sockets), every
frame's fate is a schedule decision point, and a delay-bounded DFS with
partial-order pruning enumerates schedules — each execution judged by
the :mod:`repro.verify` conformance oracle.  Violating schedules are
shrunk to a minimal prefix and reported as replay tokens.

Public surface::

    explore(config_or_spec, depth_bound, budget)  # bounded DFS
    run_schedule(config, schedule)                # one execution
    run_token(token)                              # replay a token
    shrink_schedule(config, schedule)             # minimize a violation
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "clock": ("ExploreDeadlockError", "VirtualClockLoop", "run_on_virtual_clock"),
    "explorer": (
        "FAULT_KINDS", "ExploreConfig", "ExploreReport", "ExploreViolation",
        "ScheduleOutcome", "explore", "parse_explore_token", "run_schedule",
        "run_token", "shrink_schedule", "trim_schedule",
    ),
    "transport": (
        "DEFER", "DELIVER", "DROP", "STALL", "DecisionPoint", "ExploredTransport",
        "ExploreScheduleError", "ScheduleController",
    ),
})

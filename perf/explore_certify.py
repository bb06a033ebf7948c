"""Workload ``explore_certify``: configurations explored to exhaustion.

op = one configuration explored until its frontier is **exhausted** with
zero violations, ``explore(cfg, depth_bound, budget=10**6,
stop_at_first=False)``:

* (1,2,5) fault-free, depth 2 (513 schedules when this was written);
* (1,2,5) ``supervise=True`` with ``p1:two-faced, p2:lie``, depth 2 (513);
* (2,2,7) fault-free, depth 1 (133).

One repeat is one pass over the three.  With three samples there are no
percentiles: ``op_p50_ms`` is the middle configuration and ``op_tail_ms``
the slowest.

Why it exists: it is the only workload on the virtual clock +
``ExploredTransport`` + runner + oracle path.  Defining the op as a
*certified configuration*, not a schedule, lets both ways of speeding the
explorer up show in ``ops_per_s`` — fewer schedules (dedup, DPOR) and a
cheaper schedule — and ``explore.schedules_per_op`` tells them apart.

Untimed, each repeat also demands that the planted ``vote_offset=1`` bug is
caught and shrunk to one deviation: a certifier that cannot see a broken
vote certifies nothing.
"""

import time

from repro.explore import ExploreConfig, explore
from repro.obs.events import EventBus

from hostspeed import PROBE_EVERY_S, probe_ms

_now = time.perf_counter

NAME = "explore_certify"
TAIL_Q = 1.0
VALUES = ("alpha", "beta", "gamma", "delta")


def configurations(seed, quick=False):
    """``(op id, config, depth bound)``; the seed only picks the value sent."""
    value = VALUES[seed % len(VALUES)]
    shallower = 1 if quick else 0
    return (
        ("n5-clean", ExploreConfig(sender_value=value), 2 - shallower),
        (
            "n5-supervised-faulty",
            ExploreConfig(
                sender_value=value,
                supervise=True,
                faults=(("p1", "two-faced"), ("p2", "lie")),
            ),
            2 - shallower,
        ),
        (
            "n7-clean",
            ExploreConfig(m=2, u=2, n_nodes=7, sender_value=value),
            1 - shallower,
        ),
    )


def schedule_marker(cuts, probes_ms):
    """An event bus that cuts an exploration at the start of every schedule.

    ``explore`` is one call lasting seconds, and the host-speed probe has
    to run during those seconds without being timed as part of the op.
    The runner announces each round on the bus it is given; round 1 opens
    a schedule, so the cuts split the op into its schedules (a few ms
    each).  A cut is ``(wall, cpu)`` where the last schedule ended and
    ``(wall, cpu)`` where the next begins; the probe runs between the two.
    Publishing costs about 0.5 % of a schedule.
    """
    bus = EventBus()
    probed_at = [0.0]

    def on_event(event):
        if event.kind == "round_started" and event.data.get("round") == 1:
            ended = (_now(), time.process_time())
            if ended[0] - probed_at[0] >= PROBE_EVERY_S:
                probes_ms.append(probe_ms())
                probed_at[0] = _now()
            cuts.append(ended + (_now(), time.process_time()))

    bus.subscribe(on_event)
    return bus


def run(seed, seconds, rec=None, quick=False, inject_failure=False):
    configs = configurations(seed, quick)
    explore(configs[0][1], depth_bound=0, budget=1)  # warm-up: one schedule
    if rec is not None:
        rec.reset()
    reports = []
    timings = []
    probes_ms = []
    timed_start = time.monotonic()
    wall0, cpu0 = _now(), time.process_time()
    for op_id, config, depth in configs:
        started = (_now(), time.process_time())
        cuts = [started + started]
        report = explore(
            config, depth_bound=depth, budget=10**6, stop_at_first=False,
            events=schedule_marker(cuts, probes_ms),
        )
        ended = (_now(), time.process_time())
        cuts.append(ended + ended)
        timings.append(
            [
                [(t1 - t0) * 1e3, (c1 - c0) * 1e3]
                for (_, _, t0, c0), (t1, c1, _, _) in zip(cuts, cuts[1:])
            ]
        )
        reports.append((op_id, report))
    wall_s, cpu_s = _now() - wall0, time.process_time() - cpu0
    traced = rec.snapshot() if rec is not None else None

    failures = []
    for position, (op_id, report) in enumerate(reports):
        certified = report.frontier_exhausted and not report.violations
        if inject_failure and position == 0:
            certified = False
        if not certified:
            failures.append(f"{NAME}:{op_id}")
    broken = explore(
        ExploreConfig(vote_offset=1), depth_bound=2, budget=150, stop_at_first=True
    )
    if not broken.violations or broken.violations[0].shrunk.deviations != 1:
        failures.append(f"{NAME}:planted-vote-bug-not-caught")
    out = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": len(reports),
        "attempted": len(reports),
        "failures": failures,
        "latencies_ms": [sum(wall for wall, _cpu in op) for op in timings],
        "passes": [timings],
        "probes_ms": probes_ms,
    }
    if traced is not None:
        schedules = sum(r.executions for _i, r in reports)
        offered = sum(r.offered for _i, r in reports)
        pruned = sum(r.pruned for _i, r in reports)
        out["traced"] = {
            **traced,
            "schedules": schedules,
            "pruning_ratio": pruned / (offered + pruned) if offered + pruned else 0.0,
            "unique_fingerprint_share": (
                sum(r.unique_fingerprints for _i, r in reports) / schedules
            ),
        }
    return out

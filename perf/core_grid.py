"""Workload ``core_grid``: the agreement algorithm alone, no asyncio, no codec.

A seeded Monte-Carlo stream over (1,2,5), (1,3,6), (2,2,7), (2,3,8) and
(3,3,10) with fixed per-configuration counts, ``f`` uniform in ``0..u``
(the sender may be faulty), adversaries from
``analysis.montecarlo.ADVERSARY_ZOO``.  op = one trial run through **both**
``run_degradable_agreement`` and
``execute_degradable_protocol(record_trace=False)``; tail = p99, which the
counts below place inside the (3,3,10) trials.

Why it exists: ``core`` (``vote``, ``eig``, ``byz``, ``protocol``) and
``sim.engine`` do all the work and ``net``/``serve`` none.  A codec or
runner change must not move it; a ``vote`` or EIG change moves it most.

``random-liar`` is left out of the zoo: its behaviour object carries RNG
state that advances with every message, so the two implementations, which
ask in different orders, would legitimately disagree.
"""

import random
import time

from repro.analysis.montecarlo import ADVERSARY_ZOO
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import classify
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec

from hostspeed import PROBE_EVERY_S, probe_ms

_now = time.perf_counter

NAME = "core_grid"
TAIL_Q = 0.99
DOMAIN = ("alpha", "beta", "gamma")
ADVERSARIES = tuple(sorted(set(ADVERSARY_ZOO) - {"random-liar"}))
#: ``(m, u, N, trials per pass)``; one pass is about 0.8 s on the sizing
#: host, 1.9 % of its trials are (3,3,10).
GRID = ((1, 2, 5, 160), (1, 3, 6, 128), (2, 2, 7, 80), (2, 3, 8, 48), (3, 3, 10, 8))


def trial_stream(seed, quick=False):
    """One pass of trials, shuffled: ``(spec, nodes, sender, value, behaviors, faulty)``."""
    rng = random.Random(seed)
    trials = []
    for m, u, n_nodes, count in GRID:
        spec = DegradableSpec(m=m, u=u, n_nodes=n_nodes)
        nodes = [f"p{k}" for k in range(n_nodes)]
        sender = nodes[0]
        for _ in range(max(1, count // 8) if quick else count):
            faulty = frozenset(rng.sample(nodes, rng.randint(0, u)))
            factory = ADVERSARY_ZOO[rng.choice(ADVERSARIES)]
            behaviors = {
                node: factory(rng, node, sender, DOMAIN)
                for node in sorted(faulty)
            }
            trials.append(
                (spec, nodes, sender, rng.choice(DOMAIN), behaviors, faulty)
            )
    rng.shuffle(trials)
    return trials


def run(seed, seconds, rec=None, quick=False, inject_failure=False):
    trials = trial_stream(seed, quick)
    for spec, nodes, sender, value, behaviors, _faulty in trials[:16]:  # warm-up
        run_degradable_agreement(spec, nodes, sender, value, behaviors)
        execute_degradable_protocol(
            spec, nodes, sender, value, behaviors, record_trace=False
        )
    if rec is not None:
        rec.reset()
    results = []
    passes = []
    probes_ms = []
    probed_at = 0.0
    timed_start = time.monotonic()
    wall0, cpu0 = _now(), time.process_time()
    # Whole passes only: a (3,3,10) trial costs 150x a (1,2,5) one, so a
    # pass cut short would change the mix, not just the count.
    while True:
        timings = []
        for index, (spec, nodes, sender, value, behaviors, _f) in enumerate(trials):
            if _now() - probed_at >= PROBE_EVERY_S:
                probes_ms.append(probe_ms())
                probed_at = _now()
            started, cpu_started = _now(), time.process_time()
            functional = run_degradable_agreement(
                spec, nodes, sender, value, behaviors
            )
            engine, _ = execute_degradable_protocol(
                spec, nodes, sender, value, behaviors, record_trace=False
            )
            timings.append(
                [[(_now() - started) * 1e3, (time.process_time() - cpu_started) * 1e3]]
            )
            results.append((index, functional, engine))
        passes.append(timings)
        if rec is not None or _now() - wall0 >= seconds:
            break
    wall_s, cpu_s = _now() - wall0, time.process_time() - cpu0
    traced = rec.snapshot() if rec is not None else None

    failures = []
    for position, (index, functional, engine) in enumerate(results):
        spec, _nodes, _sender, _value, _behaviors, faulty = trials[index]
        decisions = engine.decisions
        if inject_failure and position == 0:
            decisions = dict(decisions)
            decisions[next(iter(decisions))] = "injected-wrong-decision"
        if (
            functional.decisions != decisions
            or not classify(functional, faulty, spec).satisfied
            or not classify(engine, faulty, spec).satisfied
        ):
            failures.append(f"{NAME}:trial{index}@{position}")
    out = {
        "timed_start": timed_start,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": len(results),
        "attempted": len(results),
        "failures": failures,
        "latencies_ms": [op[0][0] for timings in passes for op in timings],
        "passes": passes,
        "probes_ms": probes_ms,
    }
    if traced is not None:
        out["traced"] = traced
    return out

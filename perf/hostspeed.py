"""How fast is this host right now?  A fixed probe that works as the program does.

The benchmark shares a 2-core virtual machine whose cores run the same code
up to 1.7x slower from one minute to the next (``process_time`` per op
inflates with it, so it is not waiting), and the slowness comes and goes
faster than any piece of work the benchmark could cut out: two probes 6 ms
apart correlate 0.18.  There are no quiet pieces to keep.  So every workload
runs this probe every 50-250 ms *inside* its timed region (never inside an
op's own timing), and ``run.py`` divides the times it reports by

    speed factor = (trimmed mean of the run's probes) / PROBE_REF_MS

— all of the work over all of the probes, across the same seconds.  On a
quiet sizing host the factor is 1.0 and times are plain milliseconds; on a
slow minute it is the slowdown.  The factor is printed
(``host.speed_factor``) with the unscaled per-repeat values, so nothing is
hidden by it.

The probe has to slow down as the program does, or the division leaves a
residue.  The program allocates: frames, trees, dicts.  A JSON round trip of
a small nested document does too, and over 15 minutes in which an instance
on ``LocalBus`` ranged 2.0-3.4 ms and ``run_degradable_agreement`` at N=7
0.19-0.31 ms (20 s windows), either divided by this probe stayed within
2.3 % and 1.5 % (quartiles over median), log-log slope 0.99 and 1.05.  An
arithmetic loop, which touches no memory, slows less than the program
(slope 1.3-1.4) and left 6.7 % and 7.3 %.  The probe imports nothing of the
program's, so no change to the program moves it.
"""

import json
import time

_now = time.perf_counter

#: ``probe_ms`` on the sizing host at its fastest (Xeon @ 2.1 GHz,
#: CPython 3.11.7).
PROBE_REF_MS = 0.27
#: Sync workloads probe between ops once this much time has passed.
PROBE_EVERY_S = 0.05

_DOCUMENT = {
    f"k{i}": {"a": list(range(20)), "b": "x" * 30, "c": {"d": i, "e": [str(i)] * 5}}
    for i in range(40)
}


def probe_ms() -> float:
    """Milliseconds one JSON round trip of a fixed 40-entry document takes."""
    started = _now()
    json.loads(json.dumps(_DOCUMENT))
    return (_now() - started) * 1e3

"""Workload ``serve_open_n5``: open loop at a fixed rate below saturation.

120 arrivals per second (an op costs 3.0 ms of CPU here, so about 36 %
utilisation), exponential inter-arrivals on absolute due times, the same
stack and fault mix as ``serve_local_n5``; op latency runs from the op's
due time; limit 50 ms; tail = p90.  Every repeat of every run replays one
arrival schedule (``loadgen.ARRIVAL_SEED``; the seed draws what arrives),
so ``run.py`` can average each op over the repeats.

Why it exists: the same layers used differently — latency below saturation
instead of throughput at it.  A coalescing or batching change that raises
``ops_per_s`` on the closed loop by delaying the first op of each batch
shows here as a worse ``op_p50_ms``; ``ops_per_s`` itself is predicted flat
(it equals the arrival rate).
"""

from loadgen import ServeWorkload, run_serve

WORKLOAD = ServeWorkload(
    name="serve_open_n5",
    m=1,
    u=2,
    n_nodes=5,
    rate=120.0,
    slo_ms=50.0,
    tail_q=0.90,
    traced_ops_per_s=120.0,
    rss_after_ops=400,
)
TAIL_Q = WORKLOAD.tail_q


def run(seed, seconds, rec=None, quick=False, inject_failure=False):
    return run_serve(WORKLOAD, seed, seconds, rec, inject_failure=inject_failure)

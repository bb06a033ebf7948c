"""Workload ``serve_local_n5``: closed loop on the in-process bus.

4 clients, (m,u,N)=(1,2,5), ``LocalBus``, batched wire path,
``max_inflight=16``; op = one instance, submit -> decision; tail = p95.

Why it exists: EIG trees at N=5 are tiny, so what an op costs is the
per-round overhead of ``net.runner``, ``serve.mux``, ``serve.gateway`` and
``net.metrics`` plus the codec runs ``LocalBus`` makes only to size frames.
``core`` does almost nothing here; ``net.tcp`` and ``net.supervision``
are not on the path at all.
"""

from loadgen import ServeWorkload, run_serve

WORKLOAD = ServeWorkload(
    name="serve_local_n5",
    m=1,
    u=2,
    n_nodes=5,
    clients=4,
    tail_q=0.95,
    traced_ops_per_s=100.0,
)
TAIL_Q = WORKLOAD.tail_q


def run(seed, seconds, rec=None, quick=False, inject_failure=False):
    return run_serve(WORKLOAD, seed, seconds, rec, inject_failure=inject_failure)

"""Workload ``serve_tcp_n7``: closed loop over real localhost sockets.

4 clients, (m,u,N)=(2,2,7), ``TcpTransport``, ``supervise=True``, the same
fault mix up to ``f = u``; op = one instance, submit -> decision; tail = p90.

Why it exists: 156 protocol messages and depth-3 EIG trees per instance,
carried in large BATCH frames over 42 directed links.  ``net.codec``
encodes *and* decodes every frame, ``net.tcp`` moves the bytes,
``net.supervision`` stamps and dedups sequence numbers, and ``core``
resolves trees that contain ``V_d`` and tie paths.  A round closes when
the slowest expected link delivers, so the tail tracks the slowest of 42
links, not the mean.
"""

from loadgen import ServeWorkload, run_serve

WORKLOAD = ServeWorkload(
    name="serve_tcp_n7",
    m=2,
    u=2,
    n_nodes=7,
    tcp=True,
    supervise=True,
    clients=4,
    tail_q=0.90,
    pool_size=60,
    slice_s=0.25,
    traced_ops_per_s=12.0,
    rss_after_ops=150,
)
TAIL_Q = WORKLOAD.tail_q


def run(seed, seconds, rec=None, quick=False, inject_failure=False):
    return run_serve(WORKLOAD, seed, seconds, rec, inject_failure=inject_failure)

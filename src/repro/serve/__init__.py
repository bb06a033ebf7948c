"""repro.serve — a multi-instance agreement service.

Real deployments do not open a fresh network per agreement: ``N`` node
daemons stay up over one shared transport pair per directed link and run
many concurrent protocol instances multiplexed on it.  This package is
that service layer over the existing async runtime:

* :mod:`repro.serve.mux` — :class:`InstanceMux` demultiplexes the shared
  transport's inbound frame stream (version-2 envelopes carry the
  ``instance_id``) into per-instance :class:`InstanceChannel` views an
  unmodified :class:`~repro.net.runner.AsyncRoundRunner` drives;
* :mod:`repro.serve.gateway` — :class:`AgreementService` fronts the mux
  with submit / await-decision, a bounded admission queue with
  reject-with-retry-after backpressure, per-instance D.1–D.4 verdicts
  (chaos faults charged to the instance whose frames they hit), and
  per-instance + aggregate metrics; :func:`record_service_run` packages
  a run for ``repro verify``'s demux path;
* :mod:`repro.serve.load` — a seeded open-/closed-loop client load
  generator with latency percentiles, throughput, and a divergence gate
  against the synchronous reference engine (``BENCH_serve.json``).
"""

from repro.serve.gateway import (
    AgreementService,
    InstanceOutcome,
    record_service_run,
)
from repro.serve.load import (
    LoadConfig,
    LoadReport,
    check_divergence,
    latency_summary,
    percentile,
    plan_workload,
    run_load,
    serve_plan,
)
from repro.serve.mux import InstanceChannel, InstanceMux

__all__ = [
    "AgreementService",
    "InstanceChannel",
    "InstanceMux",
    "InstanceOutcome",
    "LoadConfig",
    "LoadReport",
    "check_divergence",
    "latency_summary",
    "percentile",
    "plan_workload",
    "record_service_run",
    "run_load",
    "serve_plan",
]

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
* :mod:`repro.serve.plan` — the seeded plan, :func:`serve_plan` (what
  ``repro serve`` and ``repro trace --mode serve`` run, waiting out
  admission backpressure and taking each decision as it lands) and
  :func:`divergence_check` / :func:`check_divergence`, the cross-check
  against the synchronous reference engine.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "gateway": ("AgreementService", "InstanceOutcome", "record_service_run"),
    "mux": ("InstanceChannel", "InstanceMux"),
    "plan": (
        "check_divergence", "divergence_check", "plan_workload", "serve_plan",
    ),
})

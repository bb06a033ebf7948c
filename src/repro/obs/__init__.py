"""repro.obs — exportable observability for the degradable-agreement runtime.

The paper's degradation tiers (D.1–D.4) are a *runtime* property: an
operator has to be able to see which tier a live run is in.  This package
takes the signal the runtime already records —
:class:`~repro.net.metrics.NetMetrics` counters, gateway queue state,
link supervision verdicts — and makes it exportable:

* :mod:`repro.obs.events` — a structured, zero-RNG event bus the
  runner / supervisor / mux / gateway publish lifecycle events to
  (rounds, link state transitions, instance admission and verdicts);
* :mod:`repro.obs.prom` — :func:`~repro.obs.prom.metrics_registry`, the
  stable rendering of a recorder into the exported metric catalog
  (``docs/observability.md``) as dependency-free Prometheus text
  exposition — a view of the recorder, not a second metric store — and
  :func:`~repro.obs.prom.parse_exposition`, the tiny validator the CI
  gate runs against every scrape;
* :mod:`repro.obs.http` — an asyncio ``/metrics`` + ``/healthz`` +
  ``/events`` endpoint (``repro serve --metrics-port``);
* :mod:`repro.obs.stats` — the one shared nearest-rank percentile
  implementation;
* :mod:`repro.obs.snapshot` — ``repro stats``: one-shot snapshots from
  recorded trace records.

Invariant, pinned by the same-seed suites: observing a run never changes
it.  Event publication draws zero RNG and nothing wall-clock-derived
enters the determinism fingerprint, so chaos campaigns produce identical
decisions and fingerprints with the observability layer on or off.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "events": ("EventBus", "ObsEvent"),
    "http": ("ObsServer",),
    "prom": ("metrics_registry", "parse_exposition"),
    "snapshot": ("render_snapshot",),
    "stats": ("percentile", "percentiles"),
})
